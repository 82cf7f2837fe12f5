// llb_perfbench: the repository's end-to-end benchmark. See README.md.
//
//   llb_perfbench --workload <btree_backup|btree_idle|filestore_recovery>
//                 --seed N --seconds S --trace 0|1
//                 [--small] [--corrupt-backup] [--trace-out FILE]
//
// Prints the machine context, per-metric sample details and span totals,
// then, as its last line, one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones traced).

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// read_p50_us and update_p50_us are measured (see the details line) but
// not reported here: on the B-tree workloads the median Get and Insert sit
// between the uncontended and the lock-handoff latency modes of the cache
// mutex the two updaters share, and which mode holds the median shifts
// for minutes at a time. Over sets of ten seeds on a 4-vCPU VM their
// run-to-run spreads reached 0.30, above any bound the benchmark may set.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"update_p99_us", "us"},
    {"read_p99_us", "us"},
    {"backup_mb_per_s", "MB/s"},
    {"log_bytes_per_user_byte", "B/B"},
    {"crash_recovery_ms", "ms"},
    {"restore_ms", "ms"},
    {"instant_ttft_ms", "ms"},
    {"txn_per_s_during_restore", "1/s"},
    {"standby_apply_mb_per_s", "MB/s"},
};

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

std::vector<Metric> PerLayer(const Args& args, const LayerCounters& l,
                             const Samples& samples) {
  const auto spans = Tracer::Get().SpanSummary();
  auto span = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals() : it->second;
  };
  auto mean_ms = [&](const std::string& name) {
    SpanTotals s = span(name);
    return Div(static_cast<double>(s.total_ns), 1e6 * s.count);
  };
  auto self_us = [&](const std::vector<std::string>& names) {
    uint64_t self = 0, count = 0;
    for (const std::string& n : names) {
      self += span(n).self_ns;
      count += span(n).count;
    }
    return Div(static_cast<double>(self), 1e3 * count);
  };
  const double kops = static_cast<double>(l.fg_ops()) / 1000.0;
  const double steps = 8.0;
  const bool tree = args.workload != "filestore_recovery";
  // Paper section 5: the expected share of flush decisions that need an
  // identity write while a backup with N steps is active.
  const double prob_log_model =
      tree ? 1.0 / 6 + 1.0 / (2 * steps) - 1.0 / (6 * steps * steps)
           : 0.5 * (1 + 1.0 / steps);
  const double backups = static_cast<double>(l.backups);
  const double crashes = static_cast<double>(l.crashes);
  const double restores = static_cast<double>(l.restores);
  const double instants = static_cast<double>(l.instants);
  const double ships = static_cast<double>(l.ship_cycles);

  std::vector<Metric> m = {
      {"fg.update_self_us",
       self_us({"btree.insert", "filestore.write", "filestore.copy",
                "filestore.sort", "filestore.transform"}),
       "us"},
      {"fg.read_self_us", self_us({"btree.get", "filestore.read"}), "us"},
      {"btree.splits_per_kop", Div(l.splits, kops), "1/kop"},
      {"cache.miss_ratio", Div(l.misses, l.hits + l.misses), "ratio"},
      {"cache.evictions_per_kop", Div(l.evictions, kops), "1/kop"},
      {"cache.flush_decisions_per_kop", Div(l.decisions, kops), "1/kop"},
      {"cache.prob_log", Div(l.decisions_logged, l.decisions), "ratio"},
      {"cache.prob_log_model", prob_log_model, "ratio"},
      {"cache.install_waits_per_kop", Div(l.install_waits, kops), "1/kop"},
      {"cache.overlapped_installs_per_kop", Div(l.overlapped_installs, kops),
       "1/kop"},
      {"wal.bytes_per_op", Div(l.log_bytes, l.fg_ops()), "B/op"},
      {"wal.identity_byte_share", Div(l.identity_bytes, l.log_bytes),
       "ratio"},
      {"wal.forces_per_kop", Div(l.forces, kops), "1/kop"},
      {"wal.group_commits_per_kop", Div(l.group_commits, kops), "1/kop"},
      {"io.log.sync_us_per_kop",
       Div(l.io[static_cast<int>(IoClass::kLog)].sync_ns / 1e3, kops),
       "us/kop"},
      {"graph.installs_per_kop", Div(l.installs, kops), "1/kop"},
      {"graph.max_vars", static_cast<double>(l.max_vars), "count"},
      {"backup.sweep_ms", Div(l.backup_sweep_ns / 1e6, backups), "ms"},
      {"backup.read_stage_us", Div(l.backup_read_stage_us, backups), "us"},
      {"backup.write_stage_us", Div(l.backup_write_stage_us, backups), "us"},
      {"backup.read_batches", Div(l.backup_read_batches, backups), "count"},
      {"backup.fence_updates", Div(l.backup_fence_updates, backups), "count"},
      {"backup.count", backups, "count"},
  };
  for (int c = 0; c < static_cast<int>(IoClass::kCount); ++c) {
    const IoTotals& io = l.io[c];
    const std::string p = std::string("io.") + IoClassName(IoClass(c)) + ".";
    m.push_back({p + "read_ops", Div(io.read_ops, kops), "1/kop"});
    m.push_back({p + "write_ops", Div(io.write_ops, kops), "1/kop"});
    m.push_back({p + "syncs", Div(io.syncs, kops), "1/kop"});
    m.push_back({p + "read_bytes", Div(io.read_bytes, kops), "B/kop"});
    m.push_back({p + "write_bytes", Div(io.write_bytes, kops), "B/kop"});
    m.push_back({p + "busy_us", Div(io.busy_ns / 1e3, kops), "us/kop"});
  }
  const SpanTotals restore = span("recovery.restore");
  const SpanTotals first = span("instant.first_txn");
  const double untraced = TrimmedMean(*samples.Get("ops_per_s"));
  const double traced = TrimmedMean(*samples.Get("ops_per_s.traced"));
  const std::vector<Metric> rest = {
      {"redo.crash.records_scanned", Div(l.crash_scanned, crashes), "count"},
      {"redo.crash.ops_replayed", Div(l.crash_replayed, crashes), "count"},
      {"redo.crash.pages_seeded", Div(l.crash_seeded, crashes), "count"},
      {"redo.crash.pages_written", Div(l.crash_written, crashes), "count"},
      {"redo.crash.self_ms",
       Div(span("recovery.crash_redo").self_ns / 1e6,
           span("recovery.crash_redo").count),
       "ms"},
      {"redo.restore.records_scanned", Div(l.restore_scanned, restores),
       "count"},
      {"redo.restore.ops_replayed", Div(l.restore_replayed, restores),
       "count"},
      {"redo.restore.pages_seeded", Div(l.restore_seeded, restores), "count"},
      {"redo.restore.pages_written", Div(l.restore_written, restores),
       "count"},
      {"redo.restore.self_ms", Div(restore.self_ns / 1e6, restore.count),
       "ms"},
      {"restore.copy_ms", Div(restore.io_ns / 1e6, restore.count), "ms"},
      {"instant.first_fault_ms", Div(first.total_ns / 1e6, first.count), "ms"},
      {"instant.pages_faulted", Div(l.faulted, instants), "count"},
      {"instant.closure_pages_per_fault",
       Div(l.closure, l.faulted > l.closure ? l.faulted - l.closure : 1),
       "ratio"},
      {"instant.step_ms", mean_ms("instant.step"), "ms"},
      {"instant.bitmap_saves", Div(l.bitmap_saves, instants), "count"},
      {"ship.pump_ms_per_kop", Div(span("ship.pump").total_ns / 1e6, kops),
       "ms/kop"},
      {"ship.frames_sent", Div(l.frames_sent, ships), "count"},
      {"ship.bytes_sent", Div(l.ship_bytes, ships), "B"},
      {"ship.drain_self_ms",
       Div(span("ship.drain").self_ns / 1e6, span("ship.drain").count), "ms"},
      {"ship.records_applied", Div(l.records_applied, ships), "count"},
      {"db.flushall_ms", mean_ms("db.flushall"), "ms"},
      {"db.checkpoint_ms", mean_ms("db.checkpoint"), "ms"},
      {"trace.overhead", Div(traced, untraced), "ratio"},
      {"trace.coverage",
       Div(static_cast<double>(Tracer::Get().covered_ns()),
           static_cast<double>(Tracer::Get().busy_ns())),
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  fprintf(stderr,
          "usage: llb_perfbench --workload btree_backup|btree_idle|"
          "filestore_recovery --seed N --seconds S --trace 0|1 [--small] "
          "[--corrupt-backup] [--trace-out FILE]\n");
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--small") {
      args.small = true;
    } else if (a == "--corrupt-backup") {
      args.corrupt_backup = true;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  // Keep freed memory in the heap instead of returning it to the kernel:
  // every cycle builds a fresh in-memory engine, and re-faulting its pages
  // from the kernel each time made the timings depend on allocator state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const std::string context = ContextJson(args);
  printf("{\"context\": %s}\n", context.c_str());
  if (context.find("\"release_build\": false") != std::string::npos) {
    fprintf(stderr, "WARNING: not a release build; timings are not "
                    "comparable\n");
  }
  fflush(stdout);

  Checks checks;
  Samples samples;
  LayerCounters layers;
  if (args.workload == "btree_backup" || args.workload == "btree_idle") {
    RunBtree(args, args.workload == "btree_backup", &checks, &samples,
             &layers);
  } else if (args.workload == "filestore_recovery") {
    RunFilestore(args, &checks, &samples, &layers);
  } else {
    return Usage();
  }

  // Details: every sample behind each reported value, and the error ratio.
  bool complete = true;
  std::string details = "{\"details\": {";
  for (const auto& [name, values] : samples.all()) {
    details += JsonString(name) +
               ": {\"trimmed_mean\": " + Num(TrimmedMean(values)) +
               ", \"samples\": " + std::to_string(values.size()) +
               ", \"values\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      details += (i ? ", " : "") + Num(values[i]);
    }
    details += "]}, ";
  }
  const double error_ratio =
      checks.attempted() == 0
          ? 1.0
          : static_cast<double>(checks.failed()) / checks.attempted();
  details += "\"error_ratio\": " + Num(error_ratio) + ", \"failures\": [";
  const std::vector<std::string> failures = checks.messages();
  for (size_t i = 0; i < failures.size(); ++i) {
    details += (i ? ", " : "") + JsonString(failures[i]);
    fprintf(stderr, "FAILED: %s\n", failures[i].c_str());
  }
  details += "]}}";
  printf("%s\n", details.c_str());

  std::vector<Metric> metrics;
  if (args.trace) {
    std::string spans = "{\"spans\": {";
    bool first = true;
    for (const auto& [name, s] : Tracer::Get().SpanSummary()) {
      spans += std::string(first ? "" : ", ") + JsonString(name) +
               ": {\"count\": " + std::to_string(s.count) +
               ", \"total_ms\": " + Num(s.total_ns / 1e6) +
               ", \"self_ms\": " + Num(s.self_ns / 1e6) +
               ", \"io_ms\": " + Num(s.io_ns / 1e6) + "}";
      first = false;
    }
    printf("%s}}\n", spans.c_str());
    complete = samples.Get("ops_per_s") && samples.Get("ops_per_s.traced");
    if (complete) metrics = PerLayer(args, layers, samples);
    if (!args.trace_out.empty() && !Tracer::Get().WriteSpans(args.trace_out)) {
      fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      const std::vector<double>* v = samples.Get(name);
      if (v == nullptr || v->empty()) {
        complete = false;
        metrics.push_back({name, 0.0, unit});
      } else {
        // Set-up time is the median of the cycles' set-ups.
        const bool setup = std::strcmp(name, "setup_s") == 0;
        metrics.push_back({name, setup ? Median(*v) : TrimmedMean(*v), unit});
      }
    }
  }

  const bool correct = complete && checks.failed() == 0;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted()) +
                    ", \"failed\": " + std::to_string(checks.failed()) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  printf("%s}}\n", out.c_str());
  return 0;
}
