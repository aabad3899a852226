# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check fuzz-smoke serve-smoke scaling-smoke chaos-smoke cache-smoke oneshot-smoke report examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full sanity pass: build everything, run the test suites with
# backtraces on, then sweep the corpus through the CLI validators.
# `csrtl check` exits 1 on a model whose schedule conflicts
# (conflict.rtm does, by design), so both 0 and 1 count as a clean
# diagnosis here; any other exit fails.  The closing batched smoke
# runs a campaign large enough for the gate to fan it out across two
# domains, smoking the worker pool end to end.
check: build fuzz-smoke serve-smoke scaling-smoke chaos-smoke cache-smoke oneshot-smoke
	OCAMLRUNPARAM=b dune runtest
	@mkdir -p _build/check
	@for f in test/corpus/*.rtm; do \
	  dune exec --no-build csrtl -- check $$f > /dev/null 2>&1; rc=$$?; \
	  if [ $$rc -ne 0 ] && [ $$rc -ne 1 ]; then \
	    echo "check FAILED ($$rc): $$f"; exit 1; fi; \
	  dune exec --no-build csrtl -- export-vhdl $$f \
	    -o _build/check/$$(basename $$f .rtm).vhd > /dev/null; \
	  dune exec --no-build csrtl -- lint \
	    _build/check/$$(basename $$f .rtm).vhd > /dev/null || \
	    { echo "lint FAILED: $$f"; exit 1; }; \
	  echo "checked $$f"; \
	done
	@dune exec --no-build csrtl -- inject test/corpus/fig1.rtm --jobs 2
	@echo "kill-and-resume smoke:"
	@CSRTL=_build/default/bin/csrtl.exe; \
	{ echo "model smoke"; echo "csmax 33"; \
	  echo "reg R0 init 1"; echo "reg R1 init 2"; \
	  echo "bus BA BB"; echo "unit ADD ops add latency 1"; \
	  i=0; while [ $$i -lt 16 ]; do r=$$((2 * i + 1)); \
	    d=R1; [ $$((i % 2)) -eq 1 ] && d=R0; \
	    echo "transfer R0 BA R1 BB $$r ADD $$((r + 1)) BA $$d"; \
	    i=$$((i + 1)); done; } > _build/check/smoke.rtm; \
	{ echo "model killsmoke"; echo "csmax 129"; \
	  echo "reg R0 init 1"; echo "reg R1 init 2"; \
	  echo "bus BA BB"; echo "unit ADD ops add latency 1"; \
	  i=0; while [ $$i -lt 64 ]; do r=$$((2 * i + 1)); \
	    d=R1; [ $$((i % 2)) -eq 1 ] && d=R0; \
	    echo "transfer R0 BA R1 BB $$r ADD $$((r + 1)) BA $$d"; \
	    i=$$((i + 1)); done; } > _build/check/killsmoke.rtm; \
	J=_build/check/smoke.jsonl; rm -f $$J; \
	$$CSRTL inject _build/check/killsmoke.rtm \
	  > _build/check/smoke_clean.out || true; \
	$$CSRTL inject _build/check/killsmoke.rtm --engine kernel --jobs 2 \
	  --journal $$J > /dev/null 2>&1 & pid=$$!; \
	n=0; while [ "$$(cat $$J 2> /dev/null | wc -l)" -lt 6 ] \
	  && [ $$n -lt 5000 ]; do sleep 0.002; n=$$((n + 1)); done; \
	kill -9 $$pid 2> /dev/null; wait $$pid 2> /dev/null; \
	$$CSRTL inject _build/check/killsmoke.rtm --engine kernel --jobs 2 \
	    --resume $$J \
	    > _build/check/smoke_resumed.out 2> _build/check/smoke_resume.err \
	  || true; \
	sed 's/^/  /' _build/check/smoke_resume.err; \
	grep -q ': [1-9][0-9]* reused, [1-9][0-9]* re-run,' \
	  _build/check/smoke_resume.err || \
	  { echo "kill-and-resume smoke FAILED: the resume did not find a" \
	      "partial journal"; exit 1; }; \
	cmp _build/check/smoke_clean.out _build/check/smoke_resumed.out || \
	  { echo "kill-and-resume smoke FAILED"; exit 1; }; \
	echo "  SIGKILLed journaled campaign resumed a partial journal to a byte-identical report"
	@echo "batched-campaign smoke (lockstep vs kernel path, 2 domains):"
	@CSRTL=_build/default/bin/csrtl.exe; \
	$$CSRTL inject _build/check/smoke.rtm --engine kernel --jobs 1 --table \
	  > _build/check/smoke_kernel.out; \
	for j in 2 0; do \
	  $$CSRTL inject _build/check/smoke.rtm --engine auto --jobs $$j --table \
	    > _build/check/smoke_batched$$j.out; \
	  cmp _build/check/smoke_kernel.out _build/check/smoke_batched$$j.out || \
	    { echo "batched-campaign smoke FAILED at --jobs $$j"; exit 1; }; \
	done; \
	{ echo "model chain200"; echo "csmax 401"; \
	  echo "reg R0 init 1"; echo "reg R1 init 2"; \
	  echo "bus BA BB"; echo "unit ADD ops add latency 1"; \
	  i=0; while [ $$i -lt 200 ]; do r=$$((2 * i + 1)); \
	    d=R1; [ $$((i % 2)) -eq 1 ] && d=R0; \
	    echo "transfer R0 BA R1 BB $$r ADD $$((r + 1)) BA $$d"; \
	    i=$$((i + 1)); done; } > _build/check/chain200.rtm; \
	$$CSRTL inject _build/check/chain200.rtm --jobs 1 --table \
	  > _build/check/chain200_seq.out; \
	for k in 1 32 64; do \
	  $$CSRTL inject _build/check/chain200.rtm --jobs 2 --batch $$k --table \
	    > _build/check/chain200_batch$$k.out; \
	  cmp _build/check/chain200_seq.out _build/check/chain200_batch$$k.out || \
	    { echo "batched-campaign smoke FAILED: chain200 at --batch $$k"; \
	      exit 1; }; \
	done; \
	echo "  batched campaign (--jobs 2, 0) = kernel path; a 200-transfer chain the gate fans out at --jobs 2 (batch 1, 32, 64) = --jobs 1"
	@echo "make check: all corpus models validated"

# A one-shot campaign on a 32-transfer chain allocates less than one
# minor heap, so its process must finish without a single minor
# collection: OCAMLRUNPARAM=v=0x400 prints the GC counters at exit, and
# a forced collection (an `Array.make` of more than 256 slots seeded
# with a young value) shows up as minor_collections > 0.  Its report
# must still equal the kernel path's byte for byte.
oneshot-smoke: build
	@echo "one-shot campaign smoke (no minor collection, kernel bytes):"
	@CSRTL=_build/default/bin/csrtl.exe; mkdir -p _build/check; \
	{ echo "model oneshot"; echo "csmax 65"; \
	  echo "reg R0 init 1"; echo "reg R1 init 2"; \
	  echo "bus BA BB"; echo "unit ADD ops add latency 1"; \
	  i=0; while [ $$i -lt 32 ]; do r=$$((2 * i + 1)); \
	    d=R1; [ $$((i % 2)) -eq 1 ] && d=R0; \
	    echo "transfer R0 BA R1 BB $$r ADD $$((r + 1)) BA $$d"; \
	    i=$$((i + 1)); done; } > _build/check/oneshot.rtm; \
	OCAMLRUNPARAM=v=0x400 $$CSRTL inject _build/check/oneshot.rtm \
	  --jobs 0 --table > _build/check/oneshot.out \
	  2> _build/check/oneshot.gc; \
	grep -q '^minor_collections: 0$$' _build/check/oneshot.gc || \
	  { echo "oneshot-smoke FAILED: the campaign collected"; \
	    grep '^minor_' _build/check/oneshot.gc; exit 1; }; \
	$$CSRTL inject _build/check/oneshot.rtm --engine kernel --table \
	  > _build/check/oneshot_kernel.out; \
	cmp _build/check/oneshot_kernel.out _build/check/oneshot.out || \
	  { echo "oneshot-smoke FAILED: report differs from --engine kernel"; \
	    exit 1; }; \
	echo "  $$(grep '^minor_words' _build/check/oneshot.gc), 0 minor collections, bytes = --engine kernel"

# Deterministic fuzz pass over the untrusted-input frontier (VHDL,
# .rtm, .alg): a fixed seed, so the run is reproducible everywhere;
# any escaped exception fails the build and leaves a shrunk
# reproducer under _build/fuzz/.
fuzz-smoke: build
	@dune exec --no-build csrtl -- fuzz --seed 42 --runs 2000 \
	  --out _build/fuzz

# The campaign-as-a-service lifecycle against a real daemon
# (docs/SERVICE.md): cold + cached request pair byte-compared against
# offline inject, an engine/batch differential, SIGKILL mid-campaign
# followed by a restart that resumes from the journal while the
# restarted daemon SIGKILLs every other worker it spawns, 10k fuzzed
# request frames (the acceptance bar: zero crash signatures), and a
# graceful shutdown.  The socket lives under /tmp to stay inside the
# ~108-byte sun_path cap.
serve-smoke: build
	@echo "serve smoke (daemon lifecycle):"
	@CSRTL=_build/default/bin/csrtl.exe; \
	SOCK=/tmp/csrtl-smoke-$$$$.sock; STATE=_build/check/serve-state; \
	mkdir -p _build/check; rm -rf $$STATE; rm -f $$SOCK; \
	trap 'rm -f '"$$SOCK" EXIT; \
	running () { s=$$(ps -o stat= -p $$1 2> /dev/null); \
	  [ -n "$$s" ] && [ "$${s#Z}" = "$$s" ]; }; \
	outlived () { [ -n "$$1" ] || { echo "no worker to watch"; return 0; }; \
	  n=0; for p in $$1; do \
	    while running $$p && [ $$n -lt 100 ]; do sleep 0.02; n=$$((n + 1)); done; \
	    running $$p && { echo "worker $$p still running"; return 0; }; \
	  done; return 1; }; \
	{ echo "model smoke"; echo "csmax 65"; \
	  echo "reg R0 init 1"; echo "reg R1 init 2"; \
	  echo "bus BA BB"; echo "unit ADD ops add latency 1"; \
	  i=0; while [ $$i -lt 32 ]; do r=$$((2 * i + 1)); \
	    d=R1; [ $$((i % 2)) -eq 1 ] && d=R0; \
	    echo "transfer R0 BA R1 BB $$r ADD $$((r + 1)) BA $$d"; \
	    i=$$((i + 1)); done; } > _build/check/serve_smoke.rtm; \
	$$CSRTL inject _build/check/serve_smoke.rtm \
	  > _build/check/serve_offline.out; \
	$$CSRTL inject _build/check/serve_smoke.rtm --engine kernel --batch 1 \
	  --table > _build/check/serve_offline_k.out; \
	$$CSRTL serve --socket $$SOCK --state-dir $$STATE --quiet & \
	SERVE_PID=$$!; \
	$$CSRTL request --socket $$SOCK --retry 100 --ping > /dev/null || \
	  { echo "serve smoke FAILED: daemon never answered ping"; exit 1; }; \
	$$CSRTL request --socket $$SOCK _build/check/serve_smoke.rtm \
	  > _build/check/serve_cold.out 2> /dev/null; \
	cmp _build/check/serve_offline.out _build/check/serve_cold.out || \
	  { echo "serve smoke FAILED: cold response differs from offline"; \
	    exit 1; }; \
	$$CSRTL request --socket $$SOCK _build/check/serve_smoke.rtm \
	  > _build/check/serve_cached.out 2> _build/check/serve_cached.err; \
	cmp _build/check/serve_offline.out _build/check/serve_cached.out || \
	  { echo "serve smoke FAILED: cached response differs"; exit 1; }; \
	grep -q "model cached" _build/check/serve_cached.err || \
	  { echo "serve smoke FAILED: second request missed the cache"; \
	    exit 1; }; \
	$$CSRTL request --socket $$SOCK _build/check/serve_smoke.rtm \
	  --engine kernel --batch 1 --table \
	  > _build/check/serve_k.out 2> /dev/null; \
	cmp _build/check/serve_offline_k.out _build/check/serve_k.out || \
	  { echo "serve smoke FAILED: engine/batch differential"; exit 1; }; \
	echo "  cold + cached + kernel/batch=1 responses byte-identical"; \
	WORKERS=$$( $$CSRTL request --socket $$SOCK \
	    _build/check/serve_smoke.rtm \
	    --no-resume --engine kernel --batch 1 > /dev/null 2>&1 & \
	  cpid=$$!; sleep 0.05; pgrep -P $$SERVE_PID; \
	  kill -9 $$SERVE_PID 2> /dev/null; \
	  wait $$cpid 2> /dev/null; true ); \
	wait $$SERVE_PID 2> /dev/null; rm -f $$SOCK; \
	if outlived "$$WORKERS"; then \
	  echo "serve smoke FAILED: a worker outlived the SIGKILLed daemon"; \
	  exit 1; fi; \
	echo "  no worker outlived the SIGKILLed daemon"; \
	CSRTL_SERVE_KILL_NTH=2 $$CSRTL serve --socket $$SOCK \
	  --state-dir $$STATE --quiet & \
	SERVE_PID=$$!; \
	$$CSRTL request --socket $$SOCK --retry 100 \
	  _build/check/serve_smoke.rtm \
	  > _build/check/serve_resumed.out 2> _build/check/serve_resumed.err; \
	cmp _build/check/serve_offline.out _build/check/serve_resumed.out || \
	  { echo "serve smoke FAILED: post-SIGKILL resume differs"; exit 1; }; \
	sed 's/^/  /' _build/check/serve_resumed.err; \
	echo "  SIGKILLed daemon restarted and resumed to a byte-identical report"; \
	$$CSRTL request --socket $$SOCK _build/check/serve_smoke.rtm \
	  --no-resume > _build/check/serve_killed.out 2> /dev/null; \
	cmp _build/check/serve_offline.out _build/check/serve_killed.out || \
	  { echo "serve smoke FAILED: report after a worker SIGKILL differs"; \
	    exit 1; }; \
	$$CSRTL request --socket $$SOCK --stats | \
	  grep -q 'workers: 2 crashes, 2 restarts' || \
	  { echo "serve smoke FAILED: the killed workers were not restarted"; \
	    exit 1; }; \
	echo "  every other job's worker SIGKILLed (CSRTL_SERVE_KILL_NTH=2): restarted, byte-identical"; \
	WORKERS=$$(pgrep -P $$SERVE_PID); \
	$$CSRTL request --socket $$SOCK --shutdown > /dev/null || \
	  { echo "serve smoke FAILED: shutdown request"; exit 1; }; \
	wait $$SERVE_PID; rc=$$?; \
	[ $$rc -eq 0 ] || \
	  { echo "serve smoke FAILED: daemon exit $$rc"; exit 1; }; \
	if outlived "$$WORKERS"; then \
	  echo "serve smoke FAILED: a worker outlived the shutdown"; exit 1; fi; \
	test ! -e $$SOCK || \
	  { echo "serve smoke FAILED: socket left behind"; exit 1; }; \
	echo "  graceful shutdown: exit 0, socket removed, no worker left"
	@echo "wire-frame fuzz (10k frames, zero-crash acceptance bar):"
	@dune exec --no-build csrtl -- fuzz --target frame --seed 42 \
	  --runs 10000 --out _build/fuzz-frames

# The offline artifact cache (docs/SERVICE.md "Caching tiers"): a
# warm `csrtl inject --artifact-cache` run must be byte-identical to
# the cold run, and a corrupt on-disk entry must be diagnosed
# (rule serve.artifact), rebuilt, and then serve warm hits again —
# never crash, never change bytes.
cache-smoke: build
	@echo "artifact cache smoke (offline warm path):"
	@CSRTL=_build/default/bin/csrtl.exe; \
	DIR=_build/check/artifacts; mkdir -p _build/check; rm -rf $$DIR; \
	$$CSRTL inject test/corpus/fig1.rtm > _build/check/cache_cold.out; \
	$$CSRTL inject test/corpus/fig1.rtm --artifact-cache $$DIR \
	  > _build/check/cache_miss.out 2> /dev/null; \
	cmp _build/check/cache_cold.out _build/check/cache_miss.out || \
	  { echo "cache smoke FAILED: miss-path report differs"; exit 1; }; \
	ls $$DIR/art-*.txt > /dev/null 2>&1 || \
	  { echo "cache smoke FAILED: no artifact written"; exit 1; }; \
	$$CSRTL inject test/corpus/fig1.rtm --artifact-cache $$DIR \
	  > _build/check/cache_warm.out 2> _build/check/cache_warm.err; \
	cmp _build/check/cache_cold.out _build/check/cache_warm.out || \
	  { echo "cache smoke FAILED: warm report differs from cold"; exit 1; }; \
	[ ! -s _build/check/cache_warm.err ] || \
	  { echo "cache smoke FAILED: warm hit diagnosed spuriously"; exit 1; }; \
	echo "  cold, miss and warm artifact-cache reports byte-identical"; \
	for f in $$DIR/art-*.txt; do echo "garbage" > $$f; done; \
	$$CSRTL inject test/corpus/fig1.rtm --artifact-cache $$DIR \
	  > _build/check/cache_corrupt.out 2> _build/check/cache_corrupt.err; \
	cmp _build/check/cache_cold.out _build/check/cache_corrupt.out || \
	  { echo "cache smoke FAILED: corrupt-entry report differs"; exit 1; }; \
	grep -q "serve.artifact" _build/check/cache_corrupt.err || \
	  { echo "cache smoke FAILED: corrupt entry not diagnosed"; exit 1; }; \
	$$CSRTL inject test/corpus/fig1.rtm --artifact-cache $$DIR \
	  > _build/check/cache_rewarm.out 2> _build/check/cache_rewarm.err; \
	cmp _build/check/cache_cold.out _build/check/cache_rewarm.out || \
	  { echo "cache smoke FAILED: rebuilt-entry report differs"; exit 1; }; \
	[ ! -s _build/check/cache_rewarm.err ] || \
	  { echo "cache smoke FAILED: rebuilt entry did not serve a hit"; \
	    exit 1; }; \
	echo "  corrupt entry diagnosed (serve.artifact), rebuilt, warm again"

# The crash-only gate: 200 seeded failure injections (worker SIGKILL,
# torn journal tails, ENOSPC/EIO on journal writes, delayed frames)
# against a real forked-worker engine; every recovered report must be
# byte-identical to offline inject and the engine must keep answering.
# Fixed seed, bounded wall time (~10s on one core).
chaos-smoke: build
	@echo "chaos smoke (crash-only recovery, 200 seeded injections):"
	@dune exec --no-build csrtl -- chaos --seed 42 --runs 200 --quiet

# The multicore scaling gate: a 2-worker kernel-path campaign on a
# 48-transfer chain must reach efficiency >= 0.6 against the sequential
# run (normalized by the host's core count, so a 1-core container
# passes on overhead alone) with byte-identical reports.
scaling-smoke: build
	@dune exec --no-build bench/main.exe -- scaling-check

report:
	dune exec bench/main.exe -- report

examples:
	dune exec examples/quickstart.exe
	dune exec examples/conflict_demo.exe
	dune exec examples/vhdl_roundtrip.exe
	dune exec examples/hls_flow.exe
	dune exec examples/design_flow.exe
	dune exec examples/iks_demo.exe

clean:
	dune clean
