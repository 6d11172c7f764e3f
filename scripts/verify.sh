#!/usr/bin/env sh
# Full verification gate — a thin wrapper over the workspace's own
# test surface. The hand-rolled byte-identical baseline diffs that
# used to live here (thread-count invariance, zero-rate fault
# invariance, quarantine accounting) are now `cargo test -p
# conformance`: the golden-artifact registry, the metamorphic
# invariant suite, and the deterministic fuzz driver.
#
# Usage: scripts/verify.sh [tier...]
#   tiers: build clippy doc test conformance serve overload bench scale smoke
#   (default: all)
set -eu

cd "$(dirname "$0")/.."

tiers="${*:-build clippy doc test conformance serve overload bench scale smoke}"

has() {
    case " $tiers " in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

if has build; then
    echo "== build (release) =="
    cargo build --workspace --release
fi

if has clippy; then
    echo "== clippy (deny warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
fi

if has doc; then
    echo "== doc (rustdoc, deny warnings) =="
    # A broken, ambiguous or private intra-doc link fails the build, so
    # deleting an item cannot leave a dangling link in the public docs.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

if has test; then
    echo "== tests =="
    cargo test -q --workspace
fi

if has conformance; then
    echo "== conformance (goldens + metamorphic + fuzz) =="
    # Release mode: the golden digests are opt-level independent (pure
    # IEEE arithmetic), and the 10k-iteration fuzz campaign is fastest
    # here. Regenerate pins after an intentional output change with
    #   UPDATE_GOLDENS=1 cargo test -p conformance --test golden
    cargo test -q --release -p conformance
    ./target/release/conformance_stages
fi

if has serve; then
    echo "== serve (registry bootstrap + live smoke) =="
    # Bootstrap a versioned registry, serve it, and require the live
    # HTTP report to byte-match the offline --smoke report for the
    # same upload — the end-to-end determinism contract, from shell.
    dir="$(mktemp -d)"
    ./target/release/elev-serve --bootstrap --model-dir "$dir"
    test -s "$dir/manifest.txt"

    # A small deterministic upload; its content only matters in that
    # the served bytes must equal the offline bytes.
    gpx="$dir/upload.gpx"
    {
        printf '<?xml version="1.0" encoding="UTF-8"?>\n'
        printf '<gpx version="1.1" creator="verify">\n<trk><trkseg>\n'
        i=0
        while [ "$i" -lt 40 ]; do
            printf '<trkpt lat="38.%04d" lon="-77.0353"><ele>%d.5</ele></trkpt>\n' \
                "$i" $((100 + i))
            i=$((i + 1))
        done
        printf '</trkseg></trk></gpx>\n'
    } > "$gpx"
    ./target/release/elev-serve --model-dir "$dir" --smoke "$gpx" \
        | tail -n 1 > "$dir/offline.json"

    ./target/release/elev-serve --model-dir "$dir" --workers 2 \
        --port-file "$dir/port" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    i=0
    while [ ! -s "$dir/port" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    test -s "$dir/port"

    port="$(cat "$dir/port")" gpx="$gpx" out="$dir/served.json" python3 -c '
import http.client, os
c = http.client.HTTPConnection("127.0.0.1", int(os.environ["port"]), timeout=10)
c.request("GET", "/healthz")
r = c.getresponse(); body = r.read()
assert r.status == 200 and body == b"{\"status\": \"ok\"}", (r.status, body)
c.request("POST", "/v1/report", open(os.environ["gpx"], "rb").read())
r = c.getresponse(); body = r.read()
assert r.status == 200, (r.status, body)
open(os.environ["out"], "wb").write(body + b"\n")
'
    cmp "$dir/offline.json" "$dir/served.json"

    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - EXIT
    rm -rf "$dir"
    echo "serve: live report byte-matches offline report"
fi

if has overload; then
    echo "== overload (4x burst: bounded latency + shed accounting) =="
    # A deliberately starved server (1 worker, queue depth 2) under a
    # 4x fresh-connection burst: accepted requests must stay bounded
    # by the deadline, the excess must come back 503 + Retry-After,
    # and /v1/health's shed counters must match the client ledger.
    dir="$(mktemp -d)"
    ./target/release/elev-serve --bootstrap --model-dir "$dir"
    gpx="$dir/upload.gpx"
    {
        printf '<?xml version="1.0" encoding="UTF-8"?>\n'
        printf '<gpx version="1.1" creator="verify">\n<trk><trkseg>\n'
        i=0
        while [ "$i" -lt 40 ]; do
            printf '<trkpt lat="38.%04d" lon="-77.0353"><ele>%d.5</ele></trkpt>\n' \
                "$i" $((100 + i))
            i=$((i + 1))
        done
        printf '</trkseg></trk></gpx>\n'
    } > "$gpx"

    ./target/release/elev-serve --model-dir "$dir" --workers 1 \
        --queue-depth 2 --port-file "$dir/port" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    i=0
    while [ ! -s "$dir/port" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    test -s "$dir/port"

    port="$(cat "$dir/port")" gpx="$gpx" python3 -c '
import http.client, json, os, socket, threading, time

port = int(os.environ["port"])
body = open(os.environ["gpx"], "rb").read()
head = ("POST /v1/report HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        "Content-Length: %d\r\n\r\n" % len(body)).encode()
lock = threading.Lock()
served, shed, resets, latencies = [0], [0], [0], []

def client(n_requests):
    for _ in range(n_requests):
        t = time.monotonic()
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=10)
            s.sendall(head + body)
            buf = b""
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
            s.close()
        except OSError:
            buf = b""
        status = buf.split(b" ", 2)[1] if buf.startswith(b"HTTP/1.1 ") else b""
        with lock:
            if status == b"503":
                assert b"\r\nRetry-After: 1\r\n" in buf, buf[:200]
                shed[0] += 1
            elif status:
                assert status == b"200", buf[:200]
                served[0] += 1
                latencies.append(time.monotonic() - t)
            else:
                resets[0] += 1

threads = [threading.Thread(target=client, args=(25,)) for _ in range(4)]
for t in threads: t.start()
for t in threads: t.join()

assert served[0] + shed[0] + resets[0] == 100
assert served[0] > 0, "burst starved every request"
assert shed[0] + resets[0] > 0, "4x burst into queue depth 2 never shed"
latencies.sort()
p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
assert p99 < 5.0, "accepted p99 %.3fs blew the 5s deadline" % p99

c = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
c.request("GET", "/v1/health")
r = c.getresponse()
health = json.loads(r.read())
assert r.status == 200, health
observed = shed[0] + resets[0]
counted = health["shed_queue"] + health["shed_ip_cap"]
assert counted == observed, (counted, observed, health)
assert health["accepted"] == served[0] + 1, (health["accepted"], served[0])
assert health["worker_panics"] == 0 and health["workers_restarted"] == 0, health
print("overload: %d served (p99 %.1f ms), %d shed (503=%d, reset=%d), "
      "health ledger exact" % (served[0], p99 * 1e3, observed, shed[0], resets[0]))
'
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - EXIT
    rm -rf "$dir"
fi

if has bench; then
    echo "== bench smoke (BENCH_QUICK=1) =="
    # A quick run writes under the target directory, never over the
    # committed full-mode BENCH_<suite>.json at the repository root.
    for suite in kernels train serve; do
        json="${CARGO_TARGET_DIR:-target}/tmp/BENCH_$suite.json"
        rm -f "$json"
        BENCH_QUICK=1 cargo bench -q -p bench --bench "$suite"
        test -s "$json"
        suite="$suite" json="$json" python3 -c 'import json, os
r = json.load(open(os.environ["json"]))
assert r["suite"] == os.environ["suite"] and r["quick"] and r["benches"]
# Every entry carries the harness keys, spread and core count included.
keys = {"name", "baseline_s", "optimized_s", "speedup", "note",
        "samples", "cores", "p10_s", "p90_s"}
for b in r["benches"]:
    assert keys <= b.keys(), (b["name"], "lacks", keys - b.keys())
    assert b["samples"] >= 1 and b["cores"] >= 1, b["name"]
if os.environ["suite"] == "kernels":
    # The streaming-ingestion pair must be present and paired (a
    # baseline time alongside the optimized time).
    pairs = [b for b in r["benches"]
             if b["name"].startswith("ingest_throughput_")
             and b["baseline_s"] is not None and b["speedup"] is not None]
    assert len(pairs) >= 2, "missing ingest_throughput bench pairs"
    # The scale-corpus entries: population-shard generation and
    # feature-store streaming, both with MB/s in the note.
    gen = [b for b in r["benches"]
           if b["name"].startswith("corpus_gen") and "MB/s" in b["note"]]
    assert len(gen) == 1, "missing corpus_gen MB/s entry"
    fst = [b for b in r["benches"]
           if b["name"].startswith("featstore_read")
           and b["baseline_s"] is not None and "MB/s" in b["note"]]
    assert len(fst) == 1, "missing featstore_read MB/s entry"
    # The probe-matching pair: exact full scan vs the IVF index,
    # paired, with recall@3 and candidate-pair accounting in the note.
    ann = [b for b in r["benches"]
           if b["name"].startswith("ann_match_")
           and b["baseline_s"] is not None and b["speedup"] is not None
           and "recall@3" in b["note"] and "candidate pairs" in b["note"]]
    assert len(ann) == 1, "missing ann_match exact-vs-IVF pair"
if os.environ["suite"] == "train":
    # The lane pairs are the evidence that the one training loop kept
    # the staged path'"'"'s speed: both must be present and paired.
    for name in ("cnn_epoch_64imgs_serial_vs_4lane",
                 "table7_tm1_wl_quick_serial_vs_lanes"):
        lanes = [b for b in r["benches"] if b["name"] == name
                 and b["baseline_s"] is not None and b["speedup"] is not None]
        assert len(lanes) == 1, "missing " + name + " pair"
if os.environ["suite"] == "serve":
    # The overload entries are part of the CI artifact: a bounded
    # accepted-p99 and a nonzero shed rate.
    p99 = [b for b in r["benches"] if b["name"] == "served_overload_4x_p99"]
    assert len(p99) == 1, "missing overload p99 entry"
    shed = [b for b in r["benches"]
            if b["name"] == "served_overload_4x_shed_rate" and b["optimized_s"] > 0]
    assert len(shed) == 1, "missing/zero overload shed rate"'
    done
fi

if has scale; then
    echo "== scale (10^4-athlete quick slice: shard digests + sweep artifact) =="
    dir="$(mktemp -d)"
    # The committed artifact is the pin: the reference (IVF) sweeps
    # below rewrite it and must reproduce it. An intended output change
    # regenerates and commits it. Every other sweep writes its report to
    # target/scale_population.json.
    json="results/scale_population.json"
    exact="target/scale_population.json"
    cp "$json" "$dir/committed.json"
    export ELEV_POP_SIZE=10000 ELEV_SHARD_SIZE=1024 ELEV_STORE_DIR="$dir/featstore"
    cargo build -q --release -p bench --bin scale_sweep

    # Every shard digest must be bit-identical at 1 vs 4 worker threads
    # and under out-of-order (reversed) regeneration.
    ELEV_THREADS=4 ./target/release/scale_sweep --digests > "$dir/digests_t4.txt"
    ELEV_THREADS=1 ./target/release/scale_sweep --digests > "$dir/digests_t1.txt"
    ELEV_THREADS=1 ./target/release/scale_sweep --digests --reverse > "$dir/digests_rev.txt"
    cmp "$dir/digests_t4.txt" "$dir/digests_t1.txt"
    cmp "$dir/digests_t4.txt" "$dir/digests_rev.txt"
    n_shards="$(wc -l < "$dir/digests_t4.txt")"
    echo "scale: $n_shards shard digests identical at 1/4 threads and reversed order"

    # The exact sweep: bit-identical at 1 vs 4 worker threads (its
    # vocabulary fit and probes run on the executor too), and its report
    # must carry at least 4 population sizes, each with both
    # threat-model accuracies, and equal the committed artifact short of
    # its IVF section.
    rm -f "$exact"
    ELEV_THREADS=4 ./target/release/scale_sweep
    cp "$exact" "$dir/exact_t4.json"
    ELEV_THREADS=1 ./target/release/scale_sweep > /dev/null
    cmp "$dir/exact_t4.json" "$exact"
    json="$exact" committed="$dir/committed.json" python3 -c 'import json, os
r = json.load(open(os.environ["json"]))
assert r["suite"] == "scale_population"
pts = r["points"]
assert len(pts) >= 4, "sweep must cover >= 4 population sizes"
assert all("tm1_top1" in p and "tm1_top3" in p and "tm3_top1" in p for p in pts)
sizes = [p["athletes"] for p in pts]
assert sizes == sorted(sizes), "population sizes must ascend"
c = json.load(open(os.environ["committed"]))
c.pop("ann", None)
assert r == c, "exact sweep differs from the committed artifact"'
    echo "scale: exact sweep thread-invariant ($exact), equal to the committed artifact without ann"

    # ANN mode: the IVF sweep must be bit-identical at 1 vs 4 worker
    # threads, hold recall@3 >= 0.95 against the exact scan at every
    # pool size, and rescore under half of the candidate pairs (a
    # constant-factor cut: the index is not sublinear).
    rm "$exact"
    ELEV_ANN=1 ELEV_THREADS=4 ./target/release/scale_sweep > /dev/null
    test ! -e "$exact" # the reference run writes $json instead
    cp "$json" "$dir/ann_t4.json"
    ELEV_ANN=1 ELEV_THREADS=1 ./target/release/scale_sweep > /dev/null
    cmp "$dir/ann_t4.json" "$json"
    json="$json" python3 -c 'import json, os
r = json.load(open(os.environ["json"]))
ann = r["ann"]
assert ann is not None, "sweep artifact has no ann section"
assert len(ann["recall3"]) == len(r["points"])
assert all(v >= 0.95 for v in ann["recall3"]), "recall@3 below 0.95 floor"
assert ann["rows_scanned"] * 2 < ann["rows_total"], "IVF scan rescored half the pairs or more"'
    echo "scale: ANN sweep thread-invariant, recall@3 >= 0.95 at every pool size"
    cmp "$dir/committed.json" "$json"
    echo "scale: $json byte-identical to the committed artifact"
    unset ELEV_POP_SIZE ELEV_SHARD_SIZE ELEV_STORE_DIR
    rm -rf "$dir"
fi

if has smoke; then
    echo "== quick-scale smoke (run_all) =="
    ELEV_SCALE=quick cargo run --release -p bench --bin run_all
fi

echo "verify: OK ($tiers)"
