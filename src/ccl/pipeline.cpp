#include "ccl/pipeline.h"

namespace hpn::ccl {

StagePipeline::StagePipeline(std::vector<StageFn> stages, int chunks,
                             std::function<void()> all_done)
    : stages_{std::move(stages)},
      chunks_{chunks},
      all_done_{std::move(all_done)},
      next_chunk_(stages_.size(), 0),
      busy_(stages_.size(), false),
      completed_(stages_.size(), -1) {
  HPN_CHECK(!stages_.empty());
  HPN_CHECK(chunks >= 1);
}

void StagePipeline::start() {
  HPN_CHECK_MSG(!started_, "pipeline started twice");
  started_ = true;
  try_advance();
}

void StagePipeline::try_advance() {
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (busy_[s]) continue;
    const int chunk = next_chunk_[s];
    if (chunk >= chunks_) continue;
    // A chunk may enter stage s once it has completed stage s-1.
    if (s > 0 && completed_[s - 1] < chunk) continue;
    busy_[s] = true;
    next_chunk_[s] = chunk + 1;
    const auto stage_idx = static_cast<int>(s);
    stages_[s](chunk, [this, stage_idx, chunk] { stage_finished(stage_idx, chunk); });
  }
}

void StagePipeline::stage_finished(int stage, int chunk) {
  const auto s = static_cast<std::size_t>(stage);
  HPN_CHECK(busy_[s]);
  busy_[s] = false;
  HPN_CHECK_MSG(chunk == completed_[s] + 1, "stage completed chunks out of order");
  completed_[s] = chunk;
  if (s + 1 == stages_.size()) {
    if (++finished_chunks_ == chunks_) {
      // Off the member first: the owner may destroy us from inside it.
      const auto all_done = std::move(all_done_);
      if (all_done) all_done();
      return;
    }
  }
  try_advance();
}

}  // namespace hpn::ccl
