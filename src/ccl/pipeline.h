// Chunked stage pipeline: runs C chunks through S stages with per-stage
// FIFO serialization (stage s processes one chunk at a time, chunks in
// order). This is how collectives overlap their intra-host and inter-host
// phases: total time ~ fill + max-stage x chunks, instead of the sum of all
// phases.
#pragma once

#include <functional>
#include <vector>

#include "common/check.h"

namespace hpn::ccl {

class StagePipeline {
 public:
  /// A stage processes `chunk` and must call `done` exactly once (possibly
  /// later, from a simulator event).
  using StageFn = std::function<void(int chunk, std::function<void()> done)>;

  /// The pipeline must outlive its stages' pending `done` calls. `all_done`
  /// is its last act, so the owner may destroy it from there — provided no
  /// stage finishes the last chunk synchronously inside start().
  StagePipeline(std::vector<StageFn> stages, int chunks, std::function<void()> all_done);
  StagePipeline(const StagePipeline&) = delete;
  StagePipeline& operator=(const StagePipeline&) = delete;

  void start();

 private:
  void try_advance();
  void stage_finished(int stage, int chunk);

  std::vector<StageFn> stages_;
  int chunks_;
  std::function<void()> all_done_;
  /// Next chunk each stage should run (chunks pass stages in order).
  std::vector<int> next_chunk_;
  /// Whether each stage is currently busy.
  std::vector<bool> busy_;
  /// Highest chunk that has completed each stage (-1 = none).
  std::vector<int> completed_;
  int finished_chunks_ = 0;
  bool started_ = false;
};

}  // namespace hpn::ccl
