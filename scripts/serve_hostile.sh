#!/usr/bin/env bash
# Hostile-input smoke for the evaluation service: pipe lines no client
# should send into the real noc-serve on stdio, then `shutdown`, and
# require exit 0 with exactly one typed refusal per hostile line — a
# `"resp": "error"` line for one the parser rejects, a result with
# `"outcome": "invalid"` for a point admission rejects. The lines are
# scripts/hostile_lines.txt (not UTF-8, a router_delay that does not
# fit u32, a duplicated key, `seeds: 4e18`, a sweep past
# MAX_SWEEP_POINTS, a mesh70000 point under analytic admission, a
# mesh1 point, a point whose packet_size does not fit the engine's u16,
# and four patterns not defined on their topology: transpose on ring16
# under analytic admission, hotspot:9999:0.5 and hotspot:5:NaN on mesh4,
# bitcomp on the 9-node mesh3, and a health request spaced with U+00A0
# and U+3000, which are not JSON whitespace) preceded by one line longer than
# MAX_LINE_BYTES, which is generated here rather than checked in.
#
# Usage: scripts/serve_hostile.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p noc-serve

fixture=scripts/hostile_lines.txt
want=$(( $(grep -c '' "$fixture") + 1 ))
out="$(
  {
    head -c 5000000 /dev/zero | tr '\0' 'x'
    echo
    cat "$fixture"
    echo '{"schema": "noc-eval/serve/v1", "req": "shutdown"}'
  } | "${CARGO_TARGET_DIR:-target}/release/noc-serve"
)"
got="$(grep -cE '"resp": "error"|"outcome": "invalid"' <<<"$out" || true)"
if [ "$got" != "$want" ]; then
  echo "serve_hostile: $want hostile lines drew $got typed refusals:" >&2
  cut -c1-200 <<<"$out" >&2
  exit 1
fi
if ! tail -n 1 <<<"$out" | grep -q '"resp": "status"'; then
  echo "serve_hostile: the stream did not end with the shutdown status record" >&2
  exit 1
fi
echo "serve_hostile: $got/$want hostile lines answered with typed refusals; clean shutdown"
