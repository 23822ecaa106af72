# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test fmt-check golden serve-check examples check bench profile fuzz diff-fuzz chaos clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is optional in the dev image; enforce only when present.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Byte-identity check of seeded runs against the committed golden
# stdout/trace/metrics (see scripts/golden_check.sh).
golden:
	bash scripts/golden_check.sh

# Real-socket smoke of the networked front end: serve on a Unix
# socket, drive 32 concurrent clients for 3200 transactions, assert a
# clean drain/shutdown with zero protocol errors; then a SIGTERM
# drain of a journaled server, its --recover restart (same state digest
# and pmem crc), and a 3-shard routed cluster leg.
serve-check:
	bash scripts/serve_check.sh

# Run every example README advertises; each must exit 0.
EXAMPLES = quickstart bank_transfers online_store crash_and_recover sharded_cluster
examples:
	@for e in $(EXAMPLES); do \
	  echo "== examples/$$e =="; \
	  dune exec examples/$$e.exe || exit 1; \
	done

check: build test fmt-check golden serve-check examples

bench:
	dune exec bench/main.exe

# Wall-clock profiles (dual-clock observability): run one bench
# experiment and one seeded `nvdb run` with --profile, leaving the
# per-phase wall/allocation breakdowns as JSON under _profile/. The
# phase tables also land on stderr/stdout for a quick look.
profile:
	mkdir -p _profile
	dune exec bench/main.exe -- --only fig5 --profile \
	  --profile-out _profile/bench_fig5_profile.json
	dune exec bin/nvdb.exe -- run -w ycsb -e nvcaracal --epochs 6 --txns 2000 \
	  --profile --profile-out _profile/run_ycsb_profile.json
	@echo "profiles written to _profile/"

# Differential fuzz: NVCaracal vs Zen behind the shared engine
# interface, same seeded batches, one oracle.
diff-fuzz:
	dune exec bin/nvdb.exe -- fuzz --diff --iterations 200 --seed 11

# Seeded crash-recovery fuzz campaign with media faults (torn lines,
# bit-rot, dead lines) and crash-during-recovery injection. Override:
# make fuzz FUZZ_ITERS=200 FUZZ_SEEDS="1 2 3 4"
FUZZ_ITERS ?= 50
FUZZ_SEEDS ?= 1 2 3 4
fuzz:
	@for s in $(FUZZ_SEEDS); do \
	  echo "== fuzz --faults seed $$s =="; \
	  dune exec bin/nvdb.exe -- fuzz --iterations $(FUZZ_ITERS) --faults --seed $$s || exit 1; \
	done

# Seeded kill-9 chaos campaign against a real served instance: inject
# CHAOS_ITERS SIGKILLs at random crashpoints, recover each time from
# the admission journal, and check the pmem-image oracle plus
# exactly-once delivery. Runs both checkpoint cadences (replay-only
# and checkpoint+tail), then a 3-shard cluster campaign where shard
# processes are the kill victims and the oracle replays the router
# journal through a 1-member cluster.
# Override: make chaos CHAOS_ITERS=50 CHAOS_SEED=7
CHAOS_ITERS ?= 25
CHAOS_SEED ?= 1
chaos:
	dune exec bin/nvdb.exe -- chaos --iterations $(CHAOS_ITERS) --seed $(CHAOS_SEED)
	dune exec bin/nvdb.exe -- chaos --iterations $(CHAOS_ITERS) \
	  --seed $$(( $(CHAOS_SEED) + 1 )) --checkpoint-every 5
	dune exec bin/nvdb.exe -- chaos --iterations $(CHAOS_ITERS) \
	  --seed $$(( $(CHAOS_SEED) + 2 )) --shards 3

clean:
	dune clean
