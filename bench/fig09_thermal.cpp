// Figure 9: (a) power consumption per switching-chip generation (+45% at
// 51.2T) and (b) cooling-solution headroom — only the optimized vapor
// chamber sustains the 51.2T chip at full load; includes the transient
// over-temperature trip the paper saw in stress tests (Fig 10 motivation).
#include "bench_common.h"
#include "thermal/thermal.h"

int main(int argc, char** argv) {
  using namespace hpn;
  bench::Args::parse_multi_table(argc, argv);
  bench::banner("Figure 9 — 51.2T chip power and cooling efficiency",
                "51.2T draws +45% over 25.6T at unchanged Tjmax=105C; heat pipe and "
                "original VC trip over-temperature at full load; optimized VC (+15% "
                "cooling efficiency) survives");

  metrics::Table power{"(a) chip power by generation"};
  power.columns({"capacity_tbps", "power_w"});
  for (const double t : {3.2, 6.4, 12.8, 25.6, 51.2}) {
    power.add_row({metrics::Table::num(t, 1),
                   metrics::Table::num(thermal::chip_power_watts(Bandwidth::tbps(t)), 0)});
  }
  bench::emit(power, "fig09a_chip_power");

  const double full = thermal::chip_power_watts(Bandwidth::tbps(51.2));
  metrics::Table cooling{"(b) cooling solutions vs 51.2T full load"};
  cooling.columns({"solution", "allowed_power_w", "chip_power_w", "steady_tj_c",
                   "survives_full_load", "trips_in_stress_test"});
  for (const auto& sol : {thermal::heat_pipe(), thermal::original_vapor_chamber(),
                          thermal::optimized_vapor_chamber()}) {
    thermal::ChipThermalState chip{sol};
    for (int s = 0; s < 900 && !chip.tripped(); ++s) chip.step(full, Duration::seconds(1.0));
    cooling.add_row({sol.name,
                     metrics::Table::num(thermal::allowed_operation_power(sol), 0),
                     metrics::Table::num(full, 0),
                     metrics::Table::num(thermal::steady_junction_temp(full, sol), 1),
                     thermal::survives_full_load(sol) ? "yes" : "no",
                     chip.tripped() ? "yes (shutdown)" : "no"});
  }
  bench::emit(cooling, "fig09b_cooling");
  return 0;
}
