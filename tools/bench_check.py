#!/usr/bin/env python3
"""Regression gate over BENCH_backup.json files produced by
tools/benchrunner.

Two layers of checks:

  1. Invariants (always): the current file's derived batched-sweep
     speedup must meet --min-speedup (default 1.0x) — batching K >= 16
     pages must not lose to the legacy per-page sweep on *this*
     machine. The floor was 1.5x under software CRC32C; hardware CRC32C
     dispatch cut the per-page checksum cost that dominated the legacy
     sweep, so on MemEnv the batching win is now mostly latch
     amortisation, small (~1.1-1.2x) and noisy (both sides are
     memcpy-speed, so the ratio is also excluded from the baseline
     band, like ship_keepup_ratio). The gate still catches batching
     becoming a pessimisation. Its derived parallel-sweep speedup at 4
     workers must
     meet --min-parallel-speedup (default 2.0x) under the LatencyEnv HDD
     profile (bench_x7_parallel_sweep; EXPERIMENTS.md X7), and its
     derived restore speedup at 4 workers must meet
     --min-restore-speedup (default 2.0x) on the same profile
     (bench_x8_restore; EXPERIMENTS.md X8), and its derived log-shipping
     keep-up ratio (standby apply MB/s over primary ingest MB/s) must
     meet --min-ship-keepup (default 0.3x) — a loose floor that catches
     apply-path collapses (bench_x9_log_shipping); the ratio is too
     noisy on small shared runners for the 15% baseline band, so it is
     invariant-gated only. The derived instant-restore TTFT speedup
     (single-worker offline restore TTFT over restoring-mode open TTFT)
     must meet --min-ttft-speedup (default 10.0x) on the same profile
     (bench_x10_instant_restore; EXPERIMENTS.md X10). The derived async
     deep-queue speedups (qd8 over qd1 throughput on LatencyEnv(Nvme),
     bench_x11_async_io; EXPERIMENTS.md X11) must meet
     --min-async-speedup (default 2.0x) for both the sweep and the
     restore direction. The derived group-commit updater scaling
     (4-updater ops/s during an active backup with log_channels=4 over
     log_channels=1, on the simulated-SSD profile;
     bench_x4_backup_throughput BM_UpdatersDuringBackup;
     EXPERIMENTS.md X12) must meet --min-updater-scaling (default
     2.0x). The derived update tax of a running backup (wall time per
     insert with backups running back to back over the same loop with no
     backup; bench_x4_backup_throughput BM_Updates_*; EXPERIMENTS.md X4)
     must stay at or below MAX_UPDATE_TAX (2.5x), a fixed ceiling:
     the paper's backup adds only Iw/oF logging to updates, so a rising
     tax means the substrate serializes the sweep against the foreground
     again. --smoke runs skip BM_Updates, whose short runs are too noisy
     to gate, so the check applies to full runs only. The derived
     format-v2 backup compression ratio (manifest
     raw/stored bytes over the skewed-update workload;
     bench_x13_compressed_backup; EXPERIMENTS.md X13) must meet
     --min-compression-ratio (default 1.3x).

     With --profile posix the default invariants are replaced by the
     real-file checks: speedup_posix_qd8 and speedup_posix_restore_qd8
     (qd8 over qd1 on actual files through PosixEnv or the io_uring Env)
     must meet --min-posix-speedup (default 0.9x). The floor is
     deliberately loose: on a fast local filesystem the page cache
     absorbs most of the latency a deep queue would hide, so the win is
     small — the gate only catches the async path being *slower* than
     sync, i.e. a dispatch or batching bug, not a missed optimisation.

  2. Baseline comparison (with --baseline): derived metrics are
     throughput *ratios* measured on one machine, so they transfer across
     hardware; each current ratio must be within --threshold (default
     15%) below its committed baseline value. Absolute MB/s numbers do
     NOT transfer across machines and are only compared under
     --absolute (same-hardware runs).

Exit status 0 = pass, 1 = regression or malformed input.

Usage:
  tools/bench_check.py --current BENCH_backup.json \
      [--baseline BENCH_backup.json] [--threshold 0.15] \
      [--min-speedup 1.5] [--absolute]
"""

import argparse
import json
import sys
from pathlib import Path

# Ceiling on update_tax_during_backup (bench_x4 BM_Updates_*). Basis, 4
# vCPUs, RelWithDebInfo, min_time 0.2: with per-file MemEnv locking the
# tax read 1.14-2.06x over 17 runs (median 1.39x); with the env-wide
# mutex it read 3.22-4.33x over 9 runs. 2.5x clears the first range with
# margin and fails the second.
MAX_UPDATE_TAX = 2.5


def load(path):
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "llb-bench-backup/1":
        raise ValueError("%s: unexpected schema %r" %
                         (path, data.get("schema")))
    return data


def ratio_metrics(derived):
    """Derived keys that are hardware-portable ratios.

    The batched-sweep family (speedup_batch*, batched_speedup_best) is
    deliberately NOT in the baseline band: since hardware CRC32C both
    sides of that ratio are memcpy-speed on MemEnv and its run-to-run
    noise on shared runners exceeds 15%. It stays gated by the
    --min-speedup invariant floor only, like ship_keepup_ratio.
    updater_scaling_t4 is likewise invariant-gated only
    (--min-updater-scaling): contended multi-threaded update loops on
    shared runners are too noisy for the baseline band.
    """
    return {
        k: v for k, v in derived.items()
        if isinstance(v, (int, float)) and
        not k.startswith("speedup_batch") and
        (k.startswith("speedup_") or k in ("latch_reduction_k16",
                                           "ttft_speedup"))
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression vs baseline")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required batched-vs-legacy sweep speedup "
                             "(hardware CRC32C shrank the per-page CPU "
                             "cost the batch amortises, so the MemEnv "
                             "ratio is structurally small and noisy; "
                             "this floor catches batching turning into "
                             "a pessimisation)")
    parser.add_argument("--min-parallel-speedup", type=float, default=2.0,
                        help="required 4-worker parallel sweep speedup "
                             "under the simulated-HDD profile")
    parser.add_argument("--min-restore-speedup", type=float, default=2.0,
                        help="required 4-worker media-recovery restore "
                             "speedup under the simulated-HDD profile")
    parser.add_argument("--min-ship-keepup", type=float, default=0.3,
                        help="required standby-apply / primary-ingest "
                             "throughput ratio (apply pays a per-frame "
                             "force + flush, so it runs below ingest; "
                             "this floor catches apply-path collapses "
                             "and is deliberately loose — the ratio is "
                             "noisy on small shared runners, so it is "
                             "excluded from the baseline band)")
    parser.add_argument("--min-ttft-speedup", type=float, default=10.0,
                        help="required time-to-first-transaction speedup "
                             "of instant restore over the single-worker "
                             "offline restore under the simulated-HDD "
                             "profile (bench_x10_instant_restore; "
                             "EXPERIMENTS.md X10)")
    parser.add_argument("--min-async-speedup", type=float, default=2.0,
                        help="required qd8-vs-qd1 async deep-queue "
                             "speedup (sweep and restore) under the "
                             "simulated-NVMe profile "
                             "(bench_x11_async_io; EXPERIMENTS.md X11)")
    parser.add_argument("--min-updater-scaling", type=float, default=2.0,
                        help="required 4-updater ops/s scaling of "
                             "epoch-based group commit (log_channels=4) "
                             "over the legacy inline-force WAL "
                             "(log_channels=1) while a backup is "
                             "continuously active, on the simulated-SSD "
                             "profile (bench_x4_backup_throughput "
                             "BM_UpdatersDuringBackup; EXPERIMENTS.md "
                             "X12)")
    parser.add_argument("--min-compression-ratio", type=float, default=1.3,
                        help="required format-v2 backup compression "
                             "ratio (manifest raw/stored bytes) on the "
                             "skewed-update workload — RLE + zero "
                             "frames + dedup refs against the previous "
                             "full (bench_x13_compressed_backup; "
                             "EXPERIMENTS.md X13). The workload is "
                             "deterministic, so the ratio is "
                             "hardware-portable")
    parser.add_argument("--min-posix-speedup", type=float, default=0.9,
                        help="required qd8-vs-qd1 speedup over real "
                             "files (--profile posix); a loose floor — "
                             "the page cache hides most device latency "
                             "locally, so this catches the async path "
                             "being slower than sync, not a missed win")
    parser.add_argument("--profile", choices=("default", "posix"),
                        default="default",
                        help="which invariant set to apply: the "
                             "simulated-device suite (default) or the "
                             "real-file posix suite from "
                             "`benchrunner --posix`")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare absolute bytes_per_second "
                             "(same-hardware baselines only)")
    args = parser.parse_args()

    current = load(args.current)
    failures = []

    if args.profile == "posix":
        for key, what in (("speedup_posix_qd8", "real-file sweep"),
                          ("speedup_posix_restore_qd8",
                           "real-file restore")):
            value = current.get("derived", {}).get(key)
            if value is None:
                failures.append("current file has no %s "
                                "(did bench_x11_async_io BM_Posix run?)"
                                % key)
            elif value < args.min_posix_speedup:
                failures.append(
                    "%s qd8 speedup %.3fx < required %.2fx "
                    "(async backend slower than sync over real files)" %
                    (what, value, args.min_posix_speedup))
            else:
                print("bench_check: %s qd8 speedup %.3fx (>= %.2fx)" %
                      (what, value, args.min_posix_speedup))
        if failures:
            for failure in failures:
                print("bench_check: FAIL: %s" % failure, file=sys.stderr)
            return 1
        print("bench_check: all checks passed")
        return 0

    speedup = current.get("derived", {}).get("batched_speedup_best")
    if speedup is None:
        failures.append("current file has no batched_speedup_best "
                        "(did bench_x6_batched_sweep run?)")
    elif speedup < args.min_speedup:
        failures.append(
            "batched sweep speedup %.3fx < required %.2fx" %
            (speedup, args.min_speedup))
    else:
        print("bench_check: batched sweep speedup %.3fx (>= %.2fx)" %
              (speedup, args.min_speedup))

    parallel = current.get("derived", {}).get("speedup_parallel_t4")
    if parallel is None:
        failures.append("current file has no speedup_parallel_t4 "
                        "(did bench_x7_parallel_sweep run?)")
    elif parallel < args.min_parallel_speedup:
        failures.append(
            "parallel sweep speedup %.3fx at 4 workers < required %.2fx" %
            (parallel, args.min_parallel_speedup))
    else:
        print("bench_check: parallel sweep speedup %.3fx at 4 workers "
              "(>= %.2fx)" % (parallel, args.min_parallel_speedup))

    restore = current.get("derived", {}).get("speedup_restore_t4")
    if restore is None:
        failures.append("current file has no speedup_restore_t4 "
                        "(did bench_x8_restore run?)")
    elif restore < args.min_restore_speedup:
        failures.append(
            "restore speedup %.3fx at 4 workers < required %.2fx" %
            (restore, args.min_restore_speedup))
    else:
        print("bench_check: restore speedup %.3fx at 4 workers "
              "(>= %.2fx)" % (restore, args.min_restore_speedup))

    keepup = current.get("derived", {}).get("ship_keepup_ratio")
    if keepup is None:
        failures.append("current file has no ship_keepup_ratio "
                        "(did bench_x9_log_shipping run?)")
    elif keepup < args.min_ship_keepup:
        failures.append(
            "log-shipping keep-up ratio %.3fx < required %.2fx "
            "(standby apply path regressed)" %
            (keepup, args.min_ship_keepup))
    else:
        print("bench_check: log-shipping keep-up ratio %.3fx (>= %.2fx)" %
              (keepup, args.min_ship_keepup))

    ttft = current.get("derived", {}).get("ttft_speedup")
    if ttft is None:
        failures.append("current file has no ttft_speedup "
                        "(did bench_x10_instant_restore run?)")
    elif ttft < args.min_ttft_speedup:
        failures.append(
            "instant-restore TTFT speedup %.3fx < required %.2fx" %
            (ttft, args.min_ttft_speedup))
    else:
        print("bench_check: instant-restore TTFT speedup %.3fx (>= %.2fx)" %
              (ttft, args.min_ttft_speedup))

    scaling = current.get("derived", {}).get("updater_scaling_t4")
    if scaling is None:
        failures.append("current file has no updater_scaling_t4 "
                        "(did bench_x4_backup_throughput "
                        "BM_UpdatersDuringBackup run?)")
    elif scaling < args.min_updater_scaling:
        failures.append(
            "group-commit updater scaling %.3fx at 4 updaters < "
            "required %.2fx" % (scaling, args.min_updater_scaling))
    else:
        print("bench_check: group-commit updater scaling %.3fx at "
              "4 updaters (>= %.2fx)" % (scaling,
                                         args.min_updater_scaling))

    tax = current.get("derived", {}).get("update_tax_during_backup")
    if tax is None and current.get("smoke"):
        print("bench_check: update tax during backup not gated "
              "(smoke run; BM_Updates runs only in full runs)")
    elif tax is None:
        failures.append("current file has no update_tax_during_backup "
                        "(did bench_x4_backup_throughput BM_Updates run?)")
    elif tax > MAX_UPDATE_TAX:
        failures.append(
            "update tax during backup %.3fx > allowed %.2fx (the sweep "
            "is slowing foreground updates)" % (tax, MAX_UPDATE_TAX))
    else:
        print("bench_check: update tax during backup %.3fx (<= %.2fx)" %
              (tax, MAX_UPDATE_TAX))

    ratio = current.get("derived", {}).get("backup_compression_ratio")
    if ratio is None:
        failures.append("current file has no backup_compression_ratio "
                        "(did bench_x13_compressed_backup run?)")
    elif ratio < args.min_compression_ratio:
        failures.append(
            "backup compression ratio %.3fx < required %.2fx "
            "(format-v2 encoder regressed on the skewed-update "
            "workload)" % (ratio, args.min_compression_ratio))
    else:
        print("bench_check: backup compression ratio %.3fx (>= %.2fx)" %
              (ratio, args.min_compression_ratio))

    for key, what in (("speedup_async_qd8", "async sweep"),
                      ("speedup_async_restore_qd8", "async restore")):
        value = current.get("derived", {}).get(key)
        if value is None:
            failures.append("current file has no %s "
                            "(did bench_x11_async_io run?)" % key)
        elif value < args.min_async_speedup:
            failures.append(
                "%s qd8 speedup %.3fx < required %.2fx" %
                (what, value, args.min_async_speedup))
        else:
            print("bench_check: %s qd8 speedup %.3fx (>= %.2fx)" %
                  (what, value, args.min_async_speedup))

    if args.baseline:
        baseline = load(args.baseline)
        base_ratios = ratio_metrics(baseline.get("derived", {}))
        cur_ratios = ratio_metrics(current.get("derived", {}))
        for key, base_value in sorted(base_ratios.items()):
            if base_value <= 0:
                continue
            cur_value = cur_ratios.get(key)
            if cur_value is None:
                failures.append("derived metric %s missing from current"
                                % key)
                continue
            floor = base_value * (1.0 - args.threshold)
            status = "ok" if cur_value >= floor else "REGRESSION"
            print("bench_check: %s current=%.3f baseline=%.3f floor=%.3f %s"
                  % (key, cur_value, base_value, floor, status))
            if cur_value < floor:
                failures.append(
                    "%s regressed: %.3f < %.3f (baseline %.3f - %d%%)" %
                    (key, cur_value, floor, base_value,
                     round(args.threshold * 100)))
        if args.absolute:
            base_by_name = {
                (b["binary"], b["name"]): b
                for b in baseline.get("benchmarks", [])
                if "bytes_per_second" in b
            }
            for rec in current.get("benchmarks", []):
                key = (rec["binary"], rec["name"])
                if key not in base_by_name or "bytes_per_second" not in rec:
                    continue
                base_bps = base_by_name[key]["bytes_per_second"]
                floor = base_bps * (1.0 - args.threshold)
                if rec["bytes_per_second"] < floor:
                    failures.append(
                        "%s/%s throughput regressed: %.1f MB/s < floor "
                        "%.1f MB/s" % (key[0], key[1],
                                       rec["bytes_per_second"] / 1e6,
                                       floor / 1e6))

    if failures:
        for failure in failures:
            print("bench_check: FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("bench_check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
