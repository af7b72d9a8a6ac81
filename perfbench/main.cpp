// perfbench: the compiled half of the selcache benchmark. run.py builds it
// and calls one mode per process, so each process holds only the work it
// measures; every mode prints one JSON object on stdout.
//
//   perfbench setup     --workload W --seed N --threads T --work DIR --repeat K
//   perfbench measure   --workload W --seed N --threads T --work DIR --seconds S
//   perfbench reference --workload W --seed N --threads T
//   perfbench trace     --workload W --seed N --threads T --work DIR --spans F
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of every thread of this process so far.
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string digests_json(const perfbench::Rows& rows) {
  std::string out = "[";
  for (std::uint64_t d : perfbench::cell_digests(rows)) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(d));
    if (out.size() > 1) out += ",";
    out += buf;
  }
  return out + "]";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-' && errno == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench setup|measure|reference|trace --workload W"
               " --seed N [--threads T] [--work DIR] [--repeat K]"
               " [--seconds S] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return usage();
  const std::string mode = argv[1];
  perfbench::Config c;
  bool have_workload = false;
  bool have_seed = false;
  std::uint64_t repeat = 1;
  double seconds = 0.0;
  std::string spans;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(val);
      if (!w) return usage();
      c.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(val, &c.seed)) {
      have_seed = true;
    } else if (flag == "--threads" && parse_u64(val, &n) && n >= 1 &&
               n <= 256) {
      c.threads = static_cast<unsigned>(n);
    } else if (flag == "--repeat" && parse_u64(val, &repeat) && repeat >= 1 &&
               repeat <= 100) {
    } else if (flag == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(seconds >= 0.0)) return usage();
    } else if (flag == "--work") {
      c.work_dir = val;
    } else if (flag == "--spans") {
      spans = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed) return usage();

  try {
    if (mode == "setup") {
      std::string times = "[";
      for (std::uint64_t k = 0; k < repeat; ++k) {
        const double t0 = wall_now();
        perfbench::setup(c);
        times += (k > 0 ? "," : "") + number(wall_now() - t0);
      }
      std::printf("{\"setup_s\": %s]}\n", times.c_str());
    } else if (mode == "measure") {
      // Closed loop: one warm-up pass, then one pass after another until
      // `seconds` have passed since the warm-up ended.
      std::string passes = "[";
      const auto one_pass = [&] {
        const double w0 = wall_now();
        const double c0 = cpu_now();
        const perfbench::Rows rows = perfbench::run_pass(c);
        const double wall = wall_now() - w0;
        const double cpu = cpu_now() - c0;
        passes += std::string(passes.size() > 1 ? "," : "") +
                  "{\"wall_s\": " + number(wall) +
                  ", \"cpu_s\": " + number(cpu) +
                  ", \"digests\": " + digests_json(rows) + "}";
      };
      one_pass();
      const double start = wall_now();
      do {
        one_pass();
      } while (wall_now() - start < seconds);
      std::printf("{\"passes\": %s], \"peak_rss_mb\": %s}\n", passes.c_str(),
                  number(peak_rss_mb()).c_str());
    } else if (mode == "reference") {
      std::printf("{\"digests\": %s}\n",
                  digests_json(perfbench::reference(c)).c_str());
    } else if (mode == "trace") {
      if (spans.empty()) return usage();
      perfbench::Rows rows;
      const std::string counts = perfbench::traced_run(c, spans, &rows);
      std::printf("{\"digests\": %s, \"counts\": %s}\n",
                  digests_json(rows).c_str(), counts.c_str());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return 0;
}
