// Package audit is the determinism flight recorder: cheap rolling
// content hashes threaded through every pipeline stage, folded into a
// per-cell checkpoint ledger that localizes a digest divergence to the
// first differing (window, shard, stage) cell instead of a binary
// "digest differs".
//
// The layer holds the same house rules as internal/obs: every method on
// a nil *Recorder, *Hash, or *BlackBox is a no-op (one predicted branch
// on the hot path), recording perturbs no experiment output, and the
// ledger is a pure function of the computed cell set — identical at any
// worker or agent count, with gapped cells recorded as explicit holes
// rather than hashed.
//
// Checkpoints are appended in whatever order the schedule completes
// them (trace bundles and fleet cells overlap under Prewarm) and
// canonicalized at read time: Checkpoints and Section sort by pipeline
// rank, then (window, shard, stage). Within the fleet-collect stage
// that order IS the task-order merge frontier, so "first divergent
// checkpoint" means "first cell the frontier would have merged
// differently".
package audit

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Canonical stage names. Per-role trace stages use the "trace:" prefix
// (mirroring the span names), per-analysis checkpoints "analysis:", and
// suite sections "suite:".
const (
	StageFleetCollect = "fleet-collect"
	StageMatrixSynth  = "matrix-synth"
	StageTelemetry    = "telemetry"
)

// NonCell marks the window/shard coordinates of stages that are not
// (window, shard) grid cells: traces, analyses, suite sections,
// telemetry.
const NonCell = -1

// Hash is a zero-alloc 64-bit streaming content hash: each folded item
// avalanches into the running state (splitmix64 finalizer), and Sum
// seals the item count in, so two streams of equal XOR but different
// length or order cannot collide trivially. The zero value is ready to
// use; methods on a nil *Hash are no-ops, which is what lets the fleet
// emit path pass a nil hash when auditing is off.
type Hash struct {
	h uint64
	n int64
}

// hashSeed is the FNV-1a 64-bit offset basis — an arbitrary non-zero
// starting state so an empty stream doesn't sum to mix64(length) alone.
const hashSeed = 0xcbf29ce484222325

// mix64 is the splitmix64 finalizer: full avalanche in three rounds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Enabled reports whether the hash is live (non-nil).
func (h *Hash) Enabled() bool { return h != nil }

// Reset returns the hash to its zero state for reuse.
func (h *Hash) Reset() {
	if h == nil {
		return
	}
	h.h, h.n = 0, 0
}

// U64 folds one word.
func (h *Hash) U64(v uint64) {
	if h == nil {
		return
	}
	h.h = mix64(h.h ^ hashSeed ^ v)
	h.n++
}

// I64 folds one signed word.
func (h *Hash) I64(v int64) { h.U64(uint64(v)) }

// F64 folds one float by bit pattern (so -0.0 and 0.0 stay distinct
// inputs, exactly as they would differ in a canonical encoding).
func (h *Hash) F64(v float64) { h.U64(math.Float64bits(v)) }

// Str folds a string as one item: FNV-1a over the bytes, then the
// length, collapsed into a single fold so Count stays item-granular.
func (h *Hash) Str(s string) {
	if h == nil {
		return
	}
	f := uint64(hashSeed)
	for i := 0; i < len(s); i++ {
		f ^= uint64(s[i])
		f *= 1099511628211
	}
	h.U64(f ^ uint64(len(s))<<1)
}

// Count returns the number of items folded so far.
func (h *Hash) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum seals the stream: the running state mixed with the item count.
// The hash remains usable (Sum does not reset).
func (h *Hash) Sum() uint64 {
	if h == nil {
		return 0
	}
	return mix64(h.h ^ hashSeed ^ uint64(h.n)*0x9e3779b97f4a7c15)
}

// Checkpoint is one stage's sealed content hash: the canonical output
// of (stage, window, shard) reduced to a 64-bit sum plus the folded
// item count. Hole marks a cell that was never computed (an agent died
// and the cell gapped out): holes carry no hash and never fold.
type Checkpoint struct {
	Stage  string
	Window int
	Shard  int
	Sum    uint64
	Count  int64
	Hole   bool
}

// stageRank orders stages by pipeline position so the canonical ledger
// reads like the run: traces, their analyses, matrix synthesis, the
// fleet-collect frontier, suite sections, telemetry.
func stageRank(stage string) int {
	switch {
	case strings.HasPrefix(stage, "trace:"):
		return 0
	case strings.HasPrefix(stage, "analysis:"):
		return 1
	case stage == StageMatrixSynth:
		return 2
	case stage == StageFleetCollect:
		return 3
	case strings.HasPrefix(stage, "suite:"):
		return 4
	case stage == StageTelemetry:
		return 5
	}
	return 6
}

// Less is the canonical checkpoint order: pipeline rank, then window,
// shard, stage name. Within fleet-collect this is exactly the
// task-order merge frontier.
func Less(a, b Checkpoint) bool {
	ra, rb := stageRank(a.Stage), stageRank(b.Stage)
	if ra != rb {
		return ra < rb
	}
	if a.Window != b.Window {
		return a.Window < b.Window
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Stage < b.Stage
}

// Sort sorts checkpoints into the canonical order in place.
func Sort(cps []Checkpoint) {
	sort.Slice(cps, func(i, j int) bool { return Less(cps[i], cps[j]) })
}

// Recorder accumulates the run's checkpoint ledger. Appends are
// mutex-guarded (stages complete on parallel workers in schedule
// order); reads canonicalize. All methods no-op on a nil receiver, so
// core threads one field through every stage unconditionally.
type Recorder struct {
	mu  sync.Mutex
	cps []Checkpoint
	bb  *BlackBox

	// Planted perturbation (a testing aid for cmd/digestdiff and the CI
	// audit-smoke job): the named fleet-collect cell's recorded sum is
	// XOR-flipped, leaving the experiment outputs untouched — the ledger
	// localizes a divergence that exists only in the ledger.
	perturb            bool
	perturbW, perturbS int
}

// perturbMask is the XOR applied to a planted-divergence cell's sum.
const perturbMask = 0xdeadbeefcafef00d

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder is live (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetBlackBox attaches a crash black box; events recorded through BB
// land in its ring.
func (r *Recorder) SetBlackBox(bb *BlackBox) {
	if r == nil {
		return
	}
	r.bb = bb
}

// BB returns the attached black box (nil-safe; a nil result is itself a
// valid no-op recorder).
func (r *Recorder) BB() *BlackBox {
	if r == nil {
		return nil
	}
	return r.bb
}

// Perturb plants a ledger-only divergence at fleet-collect cell
// (window, shard). See perturbMask.
func (r *Recorder) Perturb(window, shard int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.perturb, r.perturbW, r.perturbS = true, window, shard
	r.mu.Unlock()
}

// Append records one checkpoint, applying any planted perturbation.
// This is the single write path: Record and Hole land here, as do the
// merge frontier's appends of each consumed cell's checkpoints.
func (r *Recorder) Append(cp Checkpoint) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.perturb && !cp.Hole && cp.Stage == StageFleetCollect &&
		cp.Window == r.perturbW && cp.Shard == r.perturbS {
		cp.Sum ^= perturbMask
	}
	r.cps = append(r.cps, cp)
	r.mu.Unlock()
}

// Record seals h into a checkpoint for (stage, window, shard) and
// appends it.
func (r *Recorder) Record(stage string, window, shard int, h *Hash) {
	if r == nil {
		return
	}
	r.Append(Checkpoint{Stage: stage, Window: window, Shard: shard, Sum: h.Sum(), Count: h.Count()})
}

// RecordOutput hashes a stage's rendered canonical output (one string
// item) under a non-cell checkpoint.
func (r *Recorder) RecordOutput(stage, out string) {
	if r == nil {
		return
	}
	var h Hash
	h.Str(out)
	r.Record(stage, NonCell, NonCell, &h)
}

// Hole records that (stage, window, shard) was never computed — a
// gapped cell in a crashed distributed run. Holes carry no hash.
func (r *Recorder) Hole(stage string, window, shard int) {
	if r == nil {
		return
	}
	r.Append(Checkpoint{Stage: stage, Window: window, Shard: shard, Hole: true})
}

// Reset empties the ledger, keeping capacity (the Reset-reuse contract
// of the serve loop and the benches).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cps = r.cps[:0]
	r.mu.Unlock()
}

// Checkpoints returns a canonically sorted copy of the ledger.
func (r *Recorder) Checkpoints() []Checkpoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Checkpoint(nil), r.cps...)
	r.mu.Unlock()
	Sort(out)
	return out
}
