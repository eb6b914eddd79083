package storage

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fault injection.  FaultBackend wraps any Backend with a deterministic,
// seeded fault plan: the plan counts every fault-able backend operation the
// wrapped backend performs and fires a configured fault at the Nth matching
// operation — a transient or permanent error, a short ("torn") write that
// persists only a prefix of the block, or a bit flip in the bytes a read
// returns.  Because the op sequence of an unsharded run is deterministic
// (its sorts and block streams run on one goroutine), a test can run a
// workload once to count its ops and then re-run it injecting a fault at
// every k-th op, which is exactly what the engine-level fault sweep does.
//
// Faults are injected at the storage boundary, below the I/O accounting of
// package blockio, so an injected failure looks to the rest of the system
// exactly like a failing disk.  MkdirTemp, RemoveAll, List and TempPath are
// deliberately never faulted: they are the cleanup and introspection surface
// the crash-clean guarantee is verified through, and a backend that cannot
// even report its state would make "no leaked files" untestable rather than
// false.

// ErrInjected is the sentinel every injected fault matches with errors.Is.
var ErrInjected = errors.New("injected fault")

// ErrTransient is the sentinel matched by transient failures: errors that a
// bounded retry may clear (see IsTransient and iomodel.Config.Retries).
var ErrTransient = errors.New("transient error")

// IsTransient reports whether err is worth retrying: either it matches
// ErrTransient (injected transient faults) or the error chain implements
// Transient() bool (the hook for custom backends to mark, say, a throttled
// RPC as retryable).
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// FaultOp names one class of fault-able backend operation.
type FaultOp string

// The fault-able operation classes.  OpAny matches every class.
const (
	OpCreate  FaultOp = "create"
	OpOpen    FaultOp = "open"
	OpRead    FaultOp = "read"    // File.ReadAt
	OpWrite   FaultOp = "write"   // File.Write (append)
	OpWriteAt FaultOp = "writeat" // File.WriteAt
	OpClose   FaultOp = "close"   // File.Close
	OpRename  FaultOp = "rename"
	OpRemove  FaultOp = "remove"
	OpAny     FaultOp = "any"
)

// faultOps lists every concrete operation class, in counter order.
var faultOps = []FaultOp{OpCreate, OpOpen, OpRead, OpWrite, OpWriteAt, OpClose, OpRename, OpRemove}

// Fault modes.
const (
	// ModeTransient fails the operation with an error matching ErrTransient;
	// a retry (the op fires only once unless count says otherwise) succeeds.
	ModeTransient = "transient"
	// ModePermanent fails the operation with a non-transient error; retries
	// fail the whole run.
	ModePermanent = "permanent"
	// ModeTorn applies to writes: a prefix of the buffer reaches storage and
	// the call returns a short count with a transient error, modelling a torn
	// page.  On non-write operations it degrades to ModeTransient.
	ModeTorn = "torn"
	// ModeCorrupt applies to reads: the read succeeds but one bit of the
	// returned bytes is flipped, chosen deterministically from the rule's
	// seed.  On non-read operations it degrades to ModeTransient.
	ModeCorrupt = "corrupt"
)

// FaultError is the error every injected fault surfaces as.  It matches
// ErrInjected with errors.Is, and additionally ErrTransient when the fault
// is transient.
type FaultError struct {
	// Op is the operation class the fault fired on.
	Op FaultOp
	// Path is the file path of the faulted operation.
	Path string
	// N is the 1-based index of the operation among the rule's matches.
	N int64
	// Transient marks the fault as retryable.
	Transient bool
}

// Error implements error.
func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("storage: injected %s fault on %s %q (match %d)", kind, e.Op, e.Path, e.N)
}

// Is makes errors.Is(err, ErrInjected) — and ErrTransient for transient
// faults — match without unwrapping.
func (e *FaultError) Is(target error) bool {
	return target == ErrInjected || (e.Transient && target == ErrTransient)
}

// FaultRule is one entry of a FaultPlan: fire Mode at the N-th operation
// matching Op (and the Path substring, when set), and keep firing for Count
// consecutive matches (0 = every match from N on).
type FaultRule struct {
	// Op restricts the rule to one operation class; OpAny (or "") matches all.
	Op FaultOp
	// Path, when non-empty, restricts the rule to operations whose file path
	// contains it as a substring.  Rename matches on either path.
	Path string
	// N is the 1-based index, among the rule's matching operations, of the
	// first one to fault.  N <= 0 disables the rule.
	N int64
	// Count is how many consecutive matching operations fault, starting at
	// the N-th: the default 1 fires once, 0 fires forever.
	Count int64
	// Mode is one of ModeTransient, ModePermanent, ModeTorn, ModeCorrupt;
	// empty means ModePermanent.
	Mode string
	// Seed steers the deterministic bit choice of ModeCorrupt (default 1).
	Seed uint64

	matched atomic.Int64
}

// Matches returns how many operations have matched the rule so far, fired
// or not.  A rule whose N is never reached thus measures the op budget of
// the operations it selects.
func (r *FaultRule) Matches() int64 { return r.matched.Load() }

// mode returns the effective mode of the rule.
func (r *FaultRule) mode() string {
	if r.Mode == "" {
		return ModePermanent
	}
	return r.Mode
}

// transient reports whether the rule's error (if any) is transient on op.
func (r *FaultRule) transient(op FaultOp) bool {
	switch r.mode() {
	case ModeTransient:
		return true
	case ModeTorn:
		// Torn is transient by design: the writer rolls the torn prefix back
		// with Truncate and re-writes the block.
		return true
	case ModeCorrupt:
		// Corrupt degrades to a transient error on non-read ops.
		return op != OpRead
	}
	return false
}

// matches reports whether the rule applies to op on path.
func (r *FaultRule) matches(op FaultOp, path string) bool {
	if r.N <= 0 {
		return false
	}
	if r.Op != "" && r.Op != OpAny && r.Op != op {
		return false
	}
	if r.Path != "" && !strings.Contains(path, r.Path) {
		return false
	}
	return true
}

// firedFault is a fault decision: which rule fired, at which match index.
type firedFault struct {
	rule *FaultRule
	n    int64
}

// FaultPlan is a set of FaultRules plus the operation counters they are
// evaluated against.  A plan with no rules injects nothing but still counts,
// which is how sweeps measure a workload's op budget.  All methods are safe
// for concurrent use; in an unsharded run the op sequence — and therefore
// the fired fault — is deterministic.
type FaultPlan struct {
	rules []*FaultRule
	total atomic.Int64
	perOp map[FaultOp]*atomic.Int64
}

// NewFaultPlan builds a plan from rules.  Rules with N <= 0 never fire.
func NewFaultPlan(rules ...*FaultRule) *FaultPlan {
	p := &FaultPlan{rules: rules, perOp: map[FaultOp]*atomic.Int64{}}
	for _, op := range faultOps {
		p.perOp[op] = &atomic.Int64{}
	}
	return p
}

// note records one operation and returns the fired fault, if any.
func (p *FaultPlan) note(op FaultOp, path string) *firedFault {
	p.total.Add(1)
	if c, ok := p.perOp[op]; ok {
		c.Add(1)
	}
	var hit *firedFault
	for _, r := range p.rules {
		if !r.matches(op, path) {
			continue
		}
		m := r.matched.Add(1)
		if m < r.N {
			continue
		}
		if r.Count > 0 && m >= r.N+r.Count {
			continue
		}
		if hit == nil {
			hit = &firedFault{rule: r, n: m}
		}
	}
	return hit
}

// TotalOps returns the number of fault-able operations observed so far.
func (p *FaultPlan) TotalOps() int64 { return p.total.Load() }

// OpCount returns how many operations of one class were observed.
func (p *FaultPlan) OpCount(op FaultOp) int64 {
	if c, ok := p.perOp[op]; ok {
		return c.Load()
	}
	return 0
}

// OpCounts returns the per-class operation counters as a sorted,
// human-readable summary ("close=3 create=4 ...") for logs and tests.
func (p *FaultPlan) OpCounts() string {
	parts := make([]string, 0, len(faultOps))
	for _, op := range faultOps {
		parts = append(parts, fmt.Sprintf("%s=%d", op, p.OpCount(op)))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Injected returns how many faults the plan has fired so far.
func (p *FaultPlan) Injected() int64 {
	var n int64
	for _, r := range p.rules {
		m := r.matched.Load()
		if m < r.N || r.N <= 0 {
			continue
		}
		fired := m - r.N + 1
		if r.Count > 0 && fired > r.Count {
			fired = r.Count
		}
		n += fired
	}
	return n
}

// ParseFaultSpec parses the EXTSCC_FAULT grammar into a plan:
//
//	spec  := rule (';' rule)*
//	rule  := field (',' field)*
//	field := key '=' value
//
// with keys op (create|open|read|write|writeat|close|rename|remove|any),
// n (1-based index among matching ops; required), mode (transient|permanent|
// torn|corrupt; default permanent), count (matches fired from n on; default
// 1, 0 = unlimited), path (substring filter) and seed (corruption bit choice,
// default 1).  Example:
//
//	EXTSCC_FAULT="op=write,n=120,mode=torn;op=read,n=900,mode=corrupt,seed=7"
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	var rules []*FaultRule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		rule := &FaultRule{Op: OpAny, Count: 1, Seed: 1}
		seenN := false
		for _, fs := range strings.Split(rs, ",") {
			key, value, ok := strings.Cut(strings.TrimSpace(fs), "=")
			if !ok {
				return nil, fmt.Errorf("storage: fault spec field %q is not key=value", fs)
			}
			switch key {
			case "op":
				op := FaultOp(value)
				valid := op == OpAny
				for _, k := range faultOps {
					valid = valid || op == k
				}
				if !valid {
					return nil, fmt.Errorf("storage: fault spec op %q (known: any %v)", value, faultOps)
				}
				rule.Op = op
			case "n":
				n, err := strconv.ParseInt(value, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("storage: fault spec n=%q must be a positive integer", value)
				}
				rule.N = n
				seenN = true
			case "count":
				c, err := strconv.ParseInt(value, 10, 64)
				if err != nil || c < 0 {
					return nil, fmt.Errorf("storage: fault spec count=%q must be a non-negative integer", value)
				}
				rule.Count = c
			case "mode":
				switch value {
				case ModeTransient, ModePermanent, ModeTorn, ModeCorrupt:
					rule.Mode = value
				default:
					return nil, fmt.Errorf("storage: fault spec mode %q (known: transient permanent torn corrupt)", value)
				}
			case "path":
				rule.Path = value
			case "seed":
				s, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("storage: fault spec seed=%q must be an unsigned integer", value)
				}
				rule.Seed = s
			default:
				return nil, fmt.Errorf("storage: fault spec key %q (known: op n mode count path seed)", key)
			}
		}
		if !seenN {
			return nil, fmt.Errorf("storage: fault spec rule %q has no n=<index>", rs)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, errors.New("storage: empty fault spec")
	}
	return NewFaultPlan(rules...), nil
}

// FaultBackend wraps a Backend, consulting a FaultPlan on every fault-able
// operation of the backend and of every File it serves.  Name() is the
// wrapped backend's name: with an empty plan the wrapper is observationally
// transparent, which is what lets the fault sweep assert that merely
// wrapping a run changes none of its outputs or counters.
type FaultBackend struct {
	inner Backend
	plan  *FaultPlan
}

// NewFault wraps inner with plan.  A nil plan counts ops and injects nothing.
func NewFault(inner Backend, plan *FaultPlan) *FaultBackend {
	if plan == nil {
		plan = NewFaultPlan()
	}
	return &FaultBackend{inner: inner, plan: plan}
}

// Plan returns the backend's fault plan (for its op counters).
func (b *FaultBackend) Plan() *FaultPlan { return b.plan }

// Inner returns the wrapped backend.
func (b *FaultBackend) Inner() Backend { return b.inner }

// Name implements Backend; it reports the wrapped backend's name so that
// wrapping never changes Stats.Storage or equivalence checks keyed on it.
func (b *FaultBackend) Name() string { return b.inner.Name() }

// err builds the FaultError for a fired fault.
func (f *firedFault) err(op FaultOp, path string) error {
	return &FaultError{Op: op, Path: path, N: f.n, Transient: f.rule.transient(op)}
}

// Create implements Backend.
func (b *FaultBackend) Create(path string) (File, error) {
	if f := b.plan.note(OpCreate, path); f != nil {
		return nil, f.err(OpCreate, path)
	}
	file, err := b.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, plan: b.plan}, nil
}

// Open implements Backend.
func (b *FaultBackend) Open(path string) (File, error) {
	if f := b.plan.note(OpOpen, path); f != nil {
		return nil, f.err(OpOpen, path)
	}
	file, err := b.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, plan: b.plan}, nil
}

// Remove implements Backend.
func (b *FaultBackend) Remove(path string) error {
	if f := b.plan.note(OpRemove, path); f != nil {
		return f.err(OpRemove, path)
	}
	return b.inner.Remove(path)
}

// Rename implements Backend.
func (b *FaultBackend) Rename(oldPath, newPath string) error {
	if f := b.plan.note(OpRename, oldPath+" -> "+newPath); f != nil {
		return f.err(OpRename, oldPath)
	}
	return b.inner.Rename(oldPath, newPath)
}

// MkdirTemp implements Backend; never faulted (see the package comment).
func (b *FaultBackend) MkdirTemp(parent, pattern string) (string, error) {
	return b.inner.MkdirTemp(parent, pattern)
}

// RemoveAll implements Backend; never faulted so cleanup always proceeds.
func (b *FaultBackend) RemoveAll(path string) error { return b.inner.RemoveAll(path) }

// List implements Backend; never faulted.
func (b *FaultBackend) List(dir string) ([]string, error) { return b.inner.List(dir) }

// TempPath implements Backend.
func (b *FaultBackend) TempPath() string { return b.inner.TempPath() }

// faultFile consults the plan on every fault-able File operation.
type faultFile struct {
	f    File
	plan *FaultPlan
}

func (f *faultFile) Name() string { return f.f.Name() }

// Size and Truncate pass through unfaulted: Truncate is the torn-write
// rollback primitive of the retrying block writer, and faulting the rollback
// would turn every recoverable torn write into an unrecoverable one.
func (f *faultFile) Size() (int64, error)      { return f.f.Size() }
func (f *faultFile) Truncate(size int64) error { return f.f.Truncate(size) }

func (f *faultFile) Close() error {
	if hit := f.plan.note(OpClose, f.f.Name()); hit != nil {
		// The underlying handle is still released — an OS close reporting an
		// error has consumed the descriptor too — so injected close faults
		// never leak file handles.
		f.f.Close()
		return hit.err(OpClose, f.f.Name())
	}
	return f.f.Close()
}

func (f *faultFile) Write(p []byte) (int, error) {
	if hit := f.plan.note(OpWrite, f.f.Name()); hit != nil {
		if hit.rule.mode() == ModeTorn && len(p) > 1 {
			// Persist a prefix, report a short transient write: the caller
			// sees exactly what a torn page looks like.
			n, _ := f.f.Write(p[:len(p)/2])
			return n, hit.err(OpWrite, f.f.Name())
		}
		return 0, hit.err(OpWrite, f.f.Name())
	}
	return f.f.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if hit := f.plan.note(OpWriteAt, f.f.Name()); hit != nil {
		if hit.rule.mode() == ModeTorn && len(p) > 1 {
			n, _ := f.f.WriteAt(p[:len(p)/2], off)
			return n, hit.err(OpWriteAt, f.f.Name())
		}
		return 0, hit.err(OpWriteAt, f.f.Name())
	}
	return f.f.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	hit := f.plan.note(OpRead, f.f.Name())
	if hit != nil && hit.rule.mode() != ModeCorrupt {
		return 0, hit.err(OpRead, f.f.Name())
	}
	n, err := f.f.ReadAt(p, off)
	if hit != nil && n > 0 {
		// Deterministic single-bit flip: byte and bit chosen from the rule
		// seed and the match index, so re-running the same plan corrupts the
		// same bit of the same read.
		h := hit.rule.Seed*0x9E3779B97F4A7C15 + uint64(hit.n)*0x85EBCA6B
		p[h%uint64(n)] ^= 1 << ((h >> 32) % 8)
	}
	return n, err
}
