// ppms_e2e — command line, set-up timing, metric report.
//
//   ppms_e2e --workload <name>|all --seed <k> [--seconds S] [--trace 0|1]
//            [--scratch DIR] [--smoke] [--mint-threads N] [--digest-only]
//            [--tamper]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). A failed output check prints it with correct = false and no
// metrics, and the exit code is 1.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bigint/simd.h"
#include "e2e.h"
#include "obs/metrics.h"
#include "storage/journal.h"

extern char** environ;

namespace {

using namespace e2e;
namespace obs = ppms::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;  ///< --seed is required
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  bool smoke = false;
  std::size_t mint_threads = 1;
  bool digest_only = false;
  bool tamper = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name>|all --seed <k> [--seconds S]\n"
               "          [--trace 0|1] [--scratch DIR] [--smoke]\n"
               "          [--mint-threads N] [--digest-only] [--tamper]\n"
               "workloads:",
               argv0);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto number = [&](const std::string& s) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !(v >= 0)) usage(argv[0]);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") o.workload = need(i);
    else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(number(need(i)));
      o.seed_set = true;
    } else if (arg == "--seconds") o.seconds = number(need(i));
    else if (arg == "--trace") o.trace = number(need(i)) != 0;
    else if (arg == "--scratch") o.scratch = need(i);
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--mint-threads") {
      o.mint_threads = static_cast<std::size_t>(number(need(i)));
      if (o.mint_threads == 0) usage(argv[0]);
    } else if (arg == "--digest-only") o.digest_only = true;
    else if (arg == "--tamper") o.tamper = true;
    else usage(argv[0]);
  }
  if (o.workload.empty() || !o.seed_set) usage(argv[0]);
  if (o.scratch.empty()) {
    // Beside the binary, so a run never writes outside its build tree.
    o.scratch =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        "scratch";
  }
  return o;
}

/// `--workload all`: one child process per workload, so each reports its
/// own set-up time and peak memory.
int run_all(int argc, char** argv) {
  int status_all = 0;
  for (const Workload& w : workloads()) {
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
      args.emplace_back(argv[i]);
      if (i > 0 && std::strcmp(argv[i - 1], "--workload") == 0) {
        args.back() = w.name;
      }
    }
    std::vector<char*> cargv;
    for (std::string& a : args) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::printf("== %s\n", w.name.c_str());
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                    environ) != 0) {
      std::perror("posix_spawn");
      return 1;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) status_all = 1;
  }
  return status_all;
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

std::string number_text(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in report order.
constexpr Metric kEndToEnd[] = {
    {"deposits_per_s", "deposits/s"}, {"deposit_iqm_ms", "ms"},
    {"setup_s", "s"},                 {"withdraw_ms", "ms"},
    {"spend_ms", "ms"},               {"peak_rss_mb", "MB"},
};
constexpr Metric kPerLayer[] = {
    {"server.verify.batch_mean", "coins"},
    {"server.stage.decode_mean_us", "us"},
    {"server.stage.verify_mean_us", "us"},
    {"server.stage.settle_mean_us", "us"},
    {"server.batch_self_us", "us"},
    {"dec.decode_us", "us"},
    {"dec.cert_batch_us_per_coin", "us"},
    {"dec.spend_check_us", "us"},
    {"dec.settle_us", "us"},
    {"market.ledger_us", "us"},
    {"market.close_ms", "ms"},
    {"storage.reply_us", "us"},
    {"storage.commit_us", "us"},
    {"storage.txn_us", "us"},
    {"storage.replay_krec_per_s", "krec/s"},
    {"clsig.sign_committed_ms", "ms"},
    {"clsig.randomize_ms", "ms"},
    {"pairing.pair_product_us.t2", "us"},
    {"pairing.pair_product_us.t128", "us"},
    {"pairing.g1_mul_us", "us"},
    {"pairing.miller_per_deposit", "count"},
    {"pairing.finalexp_per_deposit", "count"},
    {"bigint.fp_mul_ns.n2", "ns"},
    {"bigint.fp_mul_ns.n8", "ns"},
    {"bigint.mul_batch_ns.n2", "ns"},
    {"bigint.mul_batch_ns.n8", "ns"},
    {"hash.sha256_mbps", "MB/s"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

template <std::size_t N>
void report(const Metric (&spec)[N], const Rows& rows, std::size_t attempted,
            std::size_t failed) {
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  std::string json;
  for (const Metric& m : spec) {
    const double v = rows.at(m.name);
    std::printf("%-32s %16.4f  %s\n", m.name, v, m.unit);
    json += std::string(json.empty() ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number_text(v) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              attempted, failed, json.c_str());
}

int fail(const Checks& checks, std::size_t attempted) {
  std::fprintf(stderr, "ppms_e2e: check failed: %s\n", checks.failed.c_str());
  std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {}}\n",
              std::max<std::size_t>(1, attempted),
              std::max<std::size_t>(1, checks.requests_failed));
  return 1;
}

double histogram_mean(const char* name) {
  const obs::HistogramSnapshot h = obs::histogram(name).snapshot();
  return h.count ? static_cast<double>(h.sum_us) / static_cast<double>(h.count)
                 : 0.0;
}

int run_one(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "ppms_e2e: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  const Workload w = opt.smoke ? smoke_variant(*found) : *found;
  std::filesystem::create_directories(opt.scratch);
  const Cpus cpus = place_process();
  ppms::obs::set_metrics_enabled(true);

  const Corpus corpus = mint_corpus(w, opt.seed, opt.mint_threads, opt.tamper);
  Checks checks;

  std::printf("context: workload=%s seed=%llu field=%zu-bit corpus=%zu "
              "deposits wallets=%zu mode=%s sync=%s load=%s dup_share=%.2f\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              w.pairing_bits, corpus.envelopes.size(), w.wallets,
              w.epoch ? "epoch" : w.durable ? "durable" : "in-memory",
              w.durable ? ppms::storage::sync_policy_name(w.sync) : "-",
              w.rate > 0 ? ("open " + std::to_string(static_cast<int>(w.rate)) +
                            "/s").c_str()
                         : "closed 256",
              w.dup_share);
  std::printf("context: nproc=%u server_cpu=%d client_cpu=%d simd=%s "
              "scratch=%s (%s) mint_threads=%zu corpus_sha256=%s\n",
              std::thread::hardware_concurrency(), cpus.server, cpus.client,
              ppms::simd::level_name(ppms::simd::level()), opt.scratch.c_str(), fs_type(opt.scratch).c_str(),
              opt.mint_threads, ppms::to_hex(corpus.digest).c_str());
  if (opt.digest_only) {
    std::printf("corpus_sha256 %s\n", ppms::to_hex(corpus.digest).c_str());
    return 0;
  }
  std::fflush(stdout);

  Rows rows;
  if (!opt.trace) {
    const DriveResult d = drive(w, corpus, opt.seed,
                                opt.smoke ? 0 : opt.seconds, opt.scratch,
                                cpus, checks);
    if (!checks.ok()) return fail(checks, d.requests);
    // Timings are the fast quartile of their samples: a shared host's
    // neighbours only ever add time, in phases of a second or two.
    rows["deposits_per_s"] = quantile(d.round_dps, 0.75);
    rows["deposit_iqm_ms"] = quantile(d.round_iqm_ms, 0.25);
    rows["setup_s"] = median(corpus.part_s);
    rows["withdraw_ms"] = quantile(corpus.withdraw_ms, 0.25);
    rows["spend_ms"] = quantile(corpus.spend_ms, 0.25);
    rows["peak_rss_mb"] = peak_rss_mb();
    const double deposits = static_cast<double>(d.new_accepted);
    std::printf("context: rounds=%zu requests=%zu accepted=%zu "
                "dup_answers=%zu failed=%zu fail_ratio=%.4f timed=%.3fs "
                "pooled_deposits_per_s=%.1f latency_samples=%zu "
                "p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f spend_p50_ms=%.3f\n",
                d.rounds, d.requests, d.new_accepted, d.dup_answers,
                checks.requests_failed,
                static_cast<double>(checks.requests_failed) /
                    static_cast<double>(d.requests),
                d.timed_s, deposits / d.timed_s, d.latency_ms.size(),
                quantile(d.latency_ms, 0.50), quantile(d.latency_ms, 0.90),
                quantile(d.latency_ms, 0.99), median(corpus.spend_ms));
    std::printf("context: setup_part_s=[");
    for (double s : corpus.part_s) std::printf(" %.3f", s);
    std::printf(" ] fsync_per_deposit=%.3f peak_verify_queue=%llu",
                static_cast<double>(d.fsyncs) / deposits,
                static_cast<unsigned long long>(d.peak_verify_queue));
    if (w.rate > 0) {
      std::printf(" late_p99_ms=%.3f%s", quantile(d.late_ms, 0.99),
                  quantile(d.late_ms, 0.99) > 2.0 ? " (generator late: "
                                                    "run invalid)"
                                                  : "");
    }
    if (w.durable) {
      std::printf(" recovery_ms=%.2f wal_bytes_per_deposit=%.1f "
                  "replay_records=%llu",
                  median(d.recovery_s) * 1e3,
                  static_cast<double>(d.wal_bytes) / deposits,
                  static_cast<unsigned long long>(d.recovered_records));
    }
    if (w.epoch) std::printf(" close_ms_p50=%.3f", median(d.close_ms));
    std::printf("\n");
    report(kEndToEnd, rows, d.requests, checks.requests_failed);
    return 0;
  }

  // ---- traced run: measured pass for the program counters, then the
  // traced replay and the kernel rows ---------------------------------
  const DriveResult d =
      drive(w, corpus, opt.seed, 0.4 * opt.seconds, opt.scratch, cpus, checks);
  if (!checks.ok()) return fail(checks, d.requests);
  const double deposits = static_cast<double>(d.new_accepted);
  const double batches =
      static_cast<double>(obs::counter("server.verify.batches").value());
  rows["server.verify.batch_mean"] =
      static_cast<double>(obs::counter("server.verify.coins").value()) /
      batches;
  rows["server.stage.decode_mean_us"] = histogram_mean("server.stage.decode");
  rows["server.stage.verify_mean_us"] = histogram_mean("server.stage.verify");
  rows["server.stage.settle_mean_us"] = histogram_mean("server.stage.settle");
  rows["pairing.miller_per_deposit"] =
      static_cast<double>(obs::counter("crypto.pairing.miller").value()) /
      deposits;
  rows["pairing.finalexp_per_deposit"] =
      static_cast<double>(obs::counter("crypto.pairing.finalexp").value()) /
      deposits;
  std::printf("context: measured pass rounds=%zu deposits=%zu "
              "peak_verify_queue=%llu coalesced=%llu replayed=%llu\n",
              d.rounds, d.new_accepted,
              static_cast<unsigned long long>(d.peak_verify_queue),
              static_cast<unsigned long long>(
                  obs::counter("server.idem.joined").value()),
              static_cast<unsigned long long>(
                  obs::counter("server.idem.replays").value()));

  const auto batch = static_cast<std::size_t>(
      std::max(1.0, rows["server.verify.batch_mean"] + 0.5));
  const std::size_t attempted =
      d.requests +
      traced_replay(w, corpus, opt.seed, batch, opt.scratch,
                    opt.scratch + "/" + w.name + ".spans.json", rows, checks);
  if (checks.ok()) kernel_rows(w, corpus, opt.seed, opt.scratch, rows, checks);
  if (!checks.ok()) return fail(checks, attempted);
  report(kPerLayer, rows, attempted, 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.workload == "all") return run_all(argc, argv);
  try {
    return run_one(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppms_e2e: %s\n", e.what());
    return 1;
  }
}
