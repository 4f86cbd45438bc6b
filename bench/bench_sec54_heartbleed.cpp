// §5.4: Heartbleed / Heartbeat. Paper anchors: ~23.7% of servers vulnerable
// at disclosure (Apr 2014); 5.9% at the first scan; <2% a month later;
// 0.32% in May 2018; 34% of servers still support the Heartbeat extension
// in 2018; 3% of observed connections still negotiate it.
#include <cstdio>

#include "bench_common.hpp"
#include "scan/scanner.hpp"

using tls::core::Month;

int main() {
  auto& study = bench::shared_study();
  const tls::scan::ActiveScanner scanner(study.servers());

  const auto at = [&](int y, int mo) { return scanner.scan(Month(y, mo)); };

  const auto& mon = study.monitor();
  const auto* may18 = mon.month(Month(2018, 4));
  const double hb_negotiated =
      may18 == nullptr || may18->total == 0
          ? 0
          : 100.0 * static_cast<double>(may18->heartbeat_negotiated) /
                static_cast<double>(may18->total);

  bench::print_anchors(
      "Section 5.4 Heartbleed",
      {
          {"vulnerable servers, 2014-03 (disclosure)", "~23.7%",
           bench::fmt_pct(100 * at(2014, 3).heartbleed_vulnerable)},
          {"vulnerable servers, 2014-05 (first scans)", "5.9%",
           bench::fmt_pct(100 * at(2014, 5).heartbleed_vulnerable)},
          {"vulnerable servers, 2014-06", "<2%",
           bench::fmt_pct(100 * at(2014, 6).heartbleed_vulnerable)},
          {"vulnerable servers, 2018-05", "0.32%",
           bench::fmt_pct(100 * at(2018, 5).heartbleed_vulnerable, 2)},
          {"servers supporting Heartbeat, 2018-05", "34%",
           bench::fmt_pct(100 * at(2018, 5).heartbeat_support)},
          {"connections negotiating Heartbeat, 2018", "3%",
           bench::fmt_pct(hb_negotiated)},
      });

  // Probe-based measurement (the actual §5.4 scan mechanism): send an RFC
  // 6520 request with a lying payload_length and see who over-reads.
  tls::core::Rng probe_rng(0xb1eed);
  const double probed_2014 =
      scanner.heartbleed_probe_fraction(Month(2014, 4), 20000, probe_rng);
  const double probed_2018 =
      scanner.heartbleed_probe_fraction(Month(2018, 5), 20000, probe_rng);
  std::printf("probe-based (Monte-Carlo over RFC 6520 responders):\n");
  std::printf("  2014-04  %5.2f%%   2018-05  %5.2f%%\n\n", 100 * probed_2014,
              100 * probed_2018);

  std::printf("vulnerability decay:\n");
  for (const auto& [y, mo] : std::initializer_list<std::pair<int, int>>{
           {2014, 3}, {2014, 4}, {2014, 5}, {2014, 6}, {2014, 12},
           {2015, 6}, {2016, 6}, {2017, 6}, {2018, 5}}) {
    std::printf("  %d-%02d  %6.2f%%\n", y, mo,
                100 * at(y, mo).heartbleed_vulnerable);
  }
  return 0;
}
