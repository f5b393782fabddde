#!/usr/bin/env bash
# Write the byte-identity corpus of a liftmix source tree.
#
# Usage: tools/snapshot_outputs.sh SRC OUT
#
# SRC is a checkout (the directory that holds src/liftmix); OUT is created
# and filled with one file per output:
#   - verify JSON, exit code and stderr for all ten suites at seeds 0-2;
#   - lift build bundles for the three diameter-mixer variants, node-clock
#     and periodic-node-clock on cycles 6-12 and a fixed random 7-node
#     graph, each with uniform and a fixed random pi;
#   - lift analyze reports for SIMRE, sIMRE, SiMRE and sImRE on every
#     mixer bundle;
#   - conductance graph and bridge --all-sources outputs on the same graphs,
#     and one bridge per graph from its random pi to uniform (a spread
#     source, so several commodities leave each node);
#   - on a 7-node directed, strongly connected graph (a directed cycle plus
#     extra arcs), with uniform and a fixed random pi: bridge --all-sources,
#     bridge --src e:0, a bridge from its random pi to uniform, and lift
#     build for node-clock and the reducible diameter mixer;
#   - lift analyze reports that read a steady state: SIMRe on the cycle-8
#     flows and irreducible mixers (uniform pi) against the cycle-8 lazy
#     walk, and sIMRE on the three mixer variants of the 16-node cycle
#     (uniform pi), whose bound goes through the induced chain;
#   - lift analyze SIMRE on a copy of the cycle-8 reducible mixer bundle
#     (uniform pi) in the older format: A and F written as dense "rows",
#     and the lifted graph (A's off-diagonal support) stored beside them,
#     so the corpus shows that such bundles are read as before;
#   - lift analyze sIMRE with --t-max 4000 on the cycle-8 reducible mixer
#     bundle (uniform pi), whose scans reach a frozen state thousands of
#     steps before their window ends;
#   - conductance chain on fixed random chains of 17, 20 and 24 nodes, whose
#     cuts fill 2, 16 and 256 chunks of 2^16 masks: a reversible chain with
#     its stationary pi, and a symmetric chain with uniform pi;
#   - conductance graph with uniform pi on the 17-node chains' support (a
#     ring plus chords), whose Kelley rounds scan both chunks;
#   - lift build for clock and periodic-clock on every graph and pi above,
#     each from that tree's own `bridge --src e:0` output, for diaconis
#     (N = 8, 16) and for four-cycle (delta 0.05, gamma 0.01);
#   - lift build four-cycle at delta 0.2, gamma 0.3 with --ref-out, and
#     lift analyze SIMRE, sIMRE and SimrE on it, plus SiMre against the
#     reference chain it wrote;
#   - lift analyze SIMRE and sIMRE on those bundles and on every node-clock
#     and periodic-node-clock bundle (diaconis has no init map, so its
#     SIMRE exits 2);
#   - lift build for node-clock and periodic-node-clock on every graph and
#     pi above, directed-7 included, with --chains from that tree's own
#     `bridge --all-sources` output, and lift analyze SIMRE on each;
#   - lift build clock on cycle-6 from three chain files the reader
#     refuses: steps of two sizes, a non-square step, and a step with mass
#     off the graph's arcs (exit code and stderr);
#   - lift analyze SIMRE on five copies of the four-cycle bundle (delta
#     0.05) that the reader refuses: F with mass outside its fiber, an F
#     column summing to 0.9, F of the wrong shape (dense rows), a bool in
#     the projection, and a projection value past int64 (exit code and
#     stderr);
#   - diaconis bundles for N = 32 and 64 with lift analyze sIMRE, and sIMRE
#     with --t-max 3000 on N = 16: the periodic lifts at example1's sizes
#     and far past the default window.
#   - conductance chain on the lazy walk of the 26-node cycle, and lift
#     analyze sIMRE on the N = 26 diaconis bundle with that walk as the
#     reference chain: chains past the 24-node cut guard, whose conductance
#     comes from contiguous windows.
# Every command gets a NAME.out (stdout), NAME.code (exit code) and
# NAME.err (stderr, with OUT written as "OUT" and SRC as "SRC").  The
# inputs are written by this script, not by liftmix, so two trees read the
# same files.  Compare two trees with `diff -r OUT_A OUT_B`.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
SRC=$(cd "$1" && pwd)
OUT=$2
mkdir -p "$OUT/inputs"
OUT=$(cd "$OUT" && pwd)
IN=$OUT/inputs

python3 - "$IN" <<'EOF'
import json
import sys

import numpy as np

out = sys.argv[1]
graphs = {f"cycle-{n}": (n, [[i, (i + 1) % n] for i in range(n)]) for n in range(6, 13)}
graphs["random-7"] = (7, [[0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4],
                          [4, 6], [5, 6], [2, 6]])
rng = np.random.default_rng(20170)
for name, (n, edges) in graphs.items():
    with open(f"{out}/{name}.json", "w") as fh:
        json.dump({"n": n, "edges": edges, "directed": False}, fh)
    w = rng.random(n) + 0.1
    with open(f"{out}/{name}.pi.json", "w") as fh:
        json.dump({"weights": (w / w.sum()).tolist()}, fh)
with open(f"{out}/directed-7.json", "w") as fh:
    json.dump({"n": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]
               + [[0, 3], [2, 0], [3, 6], [5, 2], [6, 4]], "directed": True}, fh)
w = rng.random(7) + 0.1
with open(f"{out}/directed-7.pi.json", "w") as fh:
    json.dump({"weights": (w / w.sum()).tolist()}, fh)
# chain files the reader refuses, each for the 6-cycle
off_graph = np.eye(6)
off_graph[[0, 3], 0] = 0.5  # mass 0 -> 3 rides no arc
for name, steps in (("two-sizes", [np.eye(6), np.eye(5)]),
                    ("non-square", [np.full((6, 5), 1 / 6)]),
                    ("off-graph", [np.eye(6), off_graph])):
    with open(f"{out}/chain-{name}.json", "w") as fh:
        json.dump({"steps": [S.tolist() for S in steps]}, fh)
with open(f"{out}/cycle-16.json", "w") as fh:
    json.dump({"n": 16, "edges": [[i, (i + 1) % 16] for i in range(16)],
               "directed": False}, fh)
for n in (8, 26):
    lazy = 0.5 * np.eye(n)
    for i in range(n):
        lazy[(i + 1) % n, i] = lazy[(i - 1) % n, i] = 0.25
    with open(f"{out}/cycle-{n}.lazy.json", "w") as fh:
        json.dump({"n": n, "rows": lazy.tolist()}, fh)
rng = np.random.default_rng(20171)
for n in (17, 20, 24):
    # a ring plus each chord with probability 0.3, as a symmetric 0/1 mask
    arcs = np.triu(rng.random((n, n)) < 0.3, 1)
    arcs[np.arange(n - 1), np.arange(1, n)] = arcs[0, n - 1] = True
    arcs = arcs | arcs.T
    if n == 17:
        with open(f"{out}/chain-{n}.support.json", "w") as fh:
            json.dump({"n": n, "edges": np.argwhere(np.triu(arcs, 1)).tolist(),
                       "directed": False}, fh)
    # reversible: symmetric edge weights over node totals, pi the totals
    W = np.where(arcs, np.triu(0.05 + rng.random((n, n)), 1), 0.0)
    W = W + W.T + np.diag(0.05 + rng.random(n))
    totals = W.sum(axis=0)
    with open(f"{out}/chain-{n}.reversible.json", "w") as fh:
        json.dump({"n": n, "rows": (W / totals[None, :]).tolist()}, fh)
    with open(f"{out}/chain-{n}.reversible.pi.json", "w") as fh:
        json.dump({"weights": (totals / totals.sum()).tolist()}, fh)
    # symmetric, hence doubly stochastic: uniform pi is stationary
    S = np.where(arcs, np.triu(rng.random((n, n)), 1), 0.0)
    S = S + S.T
    S /= 1.5 * S.sum(axis=0).max()
    np.fill_diagonal(S, 1.0 - S.sum(axis=0))
    with open(f"{out}/chain-{n}.uniform.json", "w") as fh:
        json.dump({"n": n, "rows": S.tolist()}, fh)
EOF

run() {
    local name=$1
    shift
    local code=0
    (cd "$OUT" && PYTHONPATH="$SRC/src" python3 -m liftmix.cli "$@") \
        >"$OUT/$name.out" 2>"$OUT/$name.err.raw" || code=$?
    echo "$code" >"$OUT/$name.code"
    sed -e "s#$OUT#OUT#g" -e "s#$SRC#SRC#g" "$OUT/$name.err.raw" >"$OUT/$name.err"
    rm -f "$OUT/$name.err.raw"
}

for suite in lemma1 thm1 thm2 thm3 thm4 example1 example2 example3 \
             clock-contraction bridge-exactness; do
    for seed in 0 1 2; do
        run "verify-$suite-$seed" verify --suite "$suite" --seed "$seed"
    done
done

# node-clock lifts read from the graph's `bridge --all-sources` output
chains_from_bridges() {
    local g=$1 pi=$2 tag=$3 c
    for c in node-clock periodic-node-clock; do
        run "build-$c-chains-$tag" lift build --construction "$c" --graph "$IN/$g.json" \
            --pi "$pi" --chains "$OUT/bridge-$tag.out" --out "$OUT/build-$c-chains-$tag.bundle.json"
        run "analyze-SIMRE-$c-chains-$tag" lift analyze \
            --lift "$OUT/build-$c-chains-$tag.bundle.json" --pi "$pi" --scenario SIMRE
    done
}

graphs="cycle-6 cycle-7 cycle-8 cycle-9 cycle-10 cycle-11 cycle-12 random-7"
for g in $graphs directed-7; do
    run "bridge-spread-$g" bridge --graph "$IN/$g.json" --src "$IN/$g.pi.json" --dst uniform
done
for p in uniform random; do
    pi=uniform
    [ "$p" = random ] && pi=$IN/directed-7.pi.json
    tag=directed-7-$p
    run "bridge-$tag" bridge --graph "$IN/directed-7.json" --dst "$pi" --all-sources
    run "bridge-src0-$tag" bridge --graph "$IN/directed-7.json" --src e:0 --dst "$pi"
    run "build-node-clock-$tag" lift build --construction node-clock \
        --graph "$IN/directed-7.json" --pi "$pi" --out "$OUT/build-node-clock-$tag.bundle.json"
    run "build-diameter-reducible-$tag" lift build --construction diameter --variant reducible \
        --graph "$IN/directed-7.json" --pi "$pi" --out "$OUT/build-diameter-reducible-$tag.bundle.json"
    chains_from_bridges directed-7 "$pi" "$tag"
done

for g in $graphs; do
    for p in uniform random; do
        pi=uniform
        [ "$p" = random ] && pi=$IN/$g.pi.json
        tag=$g-$p
        run "conductance-graph-$tag" conductance graph --graph "$IN/$g.json" --pi "$pi"
        run "bridge-$tag" bridge --graph "$IN/$g.json" --dst "$pi" --all-sources
        run "bridge-src0-$tag" bridge --graph "$IN/$g.json" --src e:0 --dst "$pi"
        for c in clock periodic-clock; do
            run "build-$c-$tag" lift build --construction "$c" --graph "$IN/$g.json" \
                --chain "$OUT/bridge-src0-$tag.out" --out "$OUT/build-$c-$tag.bundle.json"
        done
        for c in node-clock periodic-node-clock; do
            run "build-$c-$tag" lift build --construction "$c" \
                --graph "$IN/$g.json" --pi "$pi" --out "$OUT/build-$c-$tag.bundle.json"
        done
        chains_from_bridges "$g" "$pi" "$tag"
        for c in clock periodic-clock node-clock periodic-node-clock; do
            for s in SIMRE sIMRE; do
                run "analyze-$s-$c-$tag" lift analyze \
                    --lift "$OUT/build-$c-$tag.bundle.json" --pi "$pi" --scenario "$s"
            done
        done
        for v in reducible flows irreducible; do
            bundle=$OUT/build-diameter-$v-$tag.bundle.json
            run "build-diameter-$v-$tag" lift build --construction diameter \
                --variant "$v" --graph "$IN/$g.json" --pi "$pi" --out "$bundle"
            for s in SIMRE sIMRE SiMRE sImRE; do
                run "analyze-$s-$v-$tag" lift analyze --lift "$bundle" \
                    --pi "$pi" --scenario "$s"
            done
        done
    done
done

for v in flows irreducible; do
    run "analyze-SIMRe-$v-cycle-8-uniform" lift analyze \
        --lift "$OUT/build-diameter-$v-cycle-8-uniform.bundle.json" \
        --pi uniform --scenario SIMRe --ref-chain "$IN/cycle-8.lazy.json"
done

dense=$IN/build-diameter-reducible-cycle-8-uniform.dense.json
python3 - "$OUT/build-diameter-reducible-cycle-8-uniform.bundle.json" "$dense" <<'EOF'
import json
import sys

import numpy as np

with open(sys.argv[1]) as fh:
    bundle = json.load(fh)
A, F = bundle["A"], bundle["F"]
if "lifted" not in bundle:
    # the lifted graph that older bundles hold: A's off-diagonal support
    arcs = sorted([i, j] for j, i, v in zip(A["row"], A["col"], A["value"])
                  if i != j and v > 1e-12)
    bundle["lifted"] = {"n": A["n"], "edges": arcs, "directed": True}
if "rows" not in A:
    rows = np.zeros((A["n"], A["n"]))
    rows[A["row"], A["col"]] = A["value"]
    bundle["A"] = {"n": A["n"], "rows": rows.tolist()}
if F is not None and "rows" not in F:
    rows = np.zeros((len(bundle["projection"]), bundle["base"]["n"]))
    rows[F["row"], F["col"]] = F["value"]
    bundle["F"] = {"rows": rows.tolist()}
with open(sys.argv[2], "w") as fh:
    json.dump(bundle, fh, sort_keys=True, separators=(",", ":"))
EOF
run "analyze-SIMRE-reducible-cycle-8-uniform-dense" lift analyze --lift "$dense" \
    --pi uniform --scenario SIMRE

run "analyze-sIMRE-reducible-cycle-8-uniform-t-max-4000" lift analyze \
    --lift "$OUT/build-diameter-reducible-cycle-8-uniform.bundle.json" \
    --pi uniform --scenario sIMRE --t-max 4000

for v in reducible flows irreducible; do
    bundle=$OUT/build-diameter-$v-cycle-16-uniform.bundle.json
    run "build-diameter-$v-cycle-16-uniform" lift build --construction diameter \
        --variant "$v" --graph "$IN/cycle-16.json" --pi uniform --out "$bundle"
    run "analyze-sIMRE-$v-cycle-16-uniform" lift analyze --lift "$bundle" \
        --pi uniform --scenario sIMRE
done

for N in 8 16 32 64; do
    run "build-diaconis-$N" lift build --construction diaconis --nodes "$N" \
        --out "$OUT/build-diaconis-$N.bundle.json"
done
run build-four-cycle lift build --construction four-cycle --delta 0.05 --gamma 0.01 \
    --out "$OUT/build-four-cycle.bundle.json"
for b in diaconis-8 diaconis-16 four-cycle; do
    for s in SIMRE sIMRE; do
        run "analyze-$s-$b" lift analyze --lift "$OUT/build-$b.bundle.json" \
            --pi uniform --scenario "$s"
    done
done

run build-four-cycle-0.2-0.3 lift build --construction four-cycle --delta 0.2 --gamma 0.3 \
    --out "$OUT/build-four-cycle-0.2-0.3.bundle.json" \
    --ref-out "$OUT/build-four-cycle-0.2-0.3.ref.json"
for s in SIMRE sIMRE SimrE; do
    run "analyze-$s-four-cycle-0.2-0.3" lift analyze \
        --lift "$OUT/build-four-cycle-0.2-0.3.bundle.json" --pi uniform --scenario "$s"
done
run analyze-SiMre-four-cycle-0.2-0.3-reference lift analyze \
    --lift "$OUT/build-four-cycle-0.2-0.3.bundle.json" --pi uniform --scenario SiMre \
    --ref-chain "$OUT/build-four-cycle-0.2-0.3.ref.json"

for N in 32 64; do
    run "analyze-sIMRE-diaconis-$N" lift analyze --lift "$OUT/build-diaconis-$N.bundle.json" \
        --pi uniform --scenario sIMRE
done
run "analyze-sIMRE-diaconis-16-t-max-3000" lift analyze \
    --lift "$OUT/build-diaconis-16.bundle.json" --pi uniform --scenario sIMRE --t-max 3000

for n in 17 20 24; do
    run "conductance-chain-$n-reversible" conductance chain \
        --chain "$IN/chain-$n.reversible.json" --pi "$IN/chain-$n.reversible.pi.json"
    run "conductance-chain-$n-uniform" conductance chain \
        --chain "$IN/chain-$n.uniform.json" --pi uniform
done
run conductance-graph-chain-17-support-uniform conductance graph \
    --graph "$IN/chain-17.support.json" --pi uniform

run conductance-chain-cycle-26-lazy conductance chain \
    --chain "$IN/cycle-26.lazy.json" --pi uniform
run build-diaconis-26 lift build --construction diaconis --nodes 26 \
    --out "$OUT/build-diaconis-26.bundle.json"
run analyze-sIMRE-diaconis-26-lazy-reference lift analyze \
    --lift "$OUT/build-diaconis-26.bundle.json" --pi uniform --scenario sIMRE \
    --ref-chain "$IN/cycle-26.lazy.json"

for name in two-sizes non-square off-graph; do
    run "build-clock-chain-$name" lift build --construction clock \
        --graph "$IN/cycle-6.json" --chain "$IN/chain-$name.json" \
        --out "$OUT/build-clock-chain-$name.bundle.json"
done

python3 - "$OUT/build-four-cycle.bundle.json" "$IN" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    bundle = json.load(fh)
F, proj = bundle["F"], bundle["projection"]  # F: row k, column k, value 1
refused = {
    "F-outside-fiber": {**bundle, "F": {**F, "row": [1] + F["row"][1:]}},
    "F-column-0.9": {**bundle, "F": {**F, "value": [0.9] + F["value"][1:]}},
    "F-shape": {**bundle, "F": {"rows": [[1.0, 0.0, 0.0, 0.0]] * 11}},
    "projection-bool": {**bundle, "projection": [True] + proj[1:]},
    "projection-past-int64": {**bundle, "projection": [2**64] + proj[1:]},
}
for name, obj in refused.items():
    with open(f"{sys.argv[2]}/four-cycle-{name}.json", "w") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
EOF
for name in F-outside-fiber F-column-0.9 F-shape projection-bool projection-past-int64; do
    run "analyze-SIMRE-four-cycle-$name" lift analyze --lift "$IN/four-cycle-$name.json" \
        --pi uniform --scenario SIMRE
done
