package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// ReportSchema is the current version of the benchmark report format.
const ReportSchema = 1

// Report is the JSON document sccbench emits with -json.  CI uploads it as
// an artifact, and a committed Report (bench/baseline.json) is the baseline
// new runs are gated against.
type Report struct {
	Schema     int           `json:"schema"`
	Experiment string        `json:"experiment"`
	Quick      bool          `json:"quick"`
	Scale      int           `json:"scale"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Entries    []ReportEntry `json:"entries"`
}

// ReportEntry is one measurement of a Report.
type ReportEntry struct {
	Experiment   string `json:"experiment"`
	X            string `json:"x"`
	Series       string `json:"series"`
	Workers      int    `json:"workers"`
	Storage      string `json:"storage,omitempty"`
	Codec        string `json:"codec,omitempty"`
	Shards       int    `json:"shards,omitempty"`
	DurationMS   int64  `json:"duration_ms"`
	TotalIOs     int64  `json:"total_ios"`
	RandomIOs    int64  `json:"random_ios"`
	BytesRead    int64  `json:"bytes_read,omitempty"`
	BytesWritten int64  `json:"bytes_written,omitempty"`
	Iterations   int    `json:"iterations"`
	NumSCCs      int64  `json:"num_sccs"`
	INF          bool   `json:"inf"`
	Note         string `json:"note,omitempty"`
	// Phases is omitted for runs without a profile, so reports written
	// before it existed round-trip unchanged under the same schema.
	Phases []PhaseMeasurement `json:"phases,omitempty"`
}

// key identifies a measurement point; workers is part of the identity so a
// report can hold the same sweep at several worker counts.  A non-default
// storage backend or codec family is part of the identity too, while
// OS-backend fixed-codec entries keep the historical key so committed
// baselines recorded before storage and codecs became pluggable still match.
func (e ReportEntry) key() string {
	k := fmt.Sprintf("%s|%s|%s|w=%d", e.Experiment, e.X, e.Series, e.Workers)
	if e.Storage != "" && e.Storage != "os" {
		k += "|s=" + e.Storage
	}
	if e.Codec != "" && e.Codec != "fixed" {
		k += "|c=" + e.Codec
	}
	if e.Shards > 1 {
		k += fmt.Sprintf("|n=%d", e.Shards)
	}
	return k
}

// NewReport packages measurements as a Report.
func NewReport(experiment string, c Config, ms []Measurement) Report {
	r := Report{
		Schema:     ReportSchema,
		Experiment: experiment,
		Quick:      c.Quick,
		Scale:      c.Scale,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
	}
	for _, m := range ms {
		r.Entries = append(r.Entries, ReportEntry{
			Experiment:   m.Experiment,
			X:            m.X,
			Series:       m.Series,
			Workers:      m.Workers,
			Storage:      m.Storage,
			Codec:        m.Codec,
			Shards:       m.shardCount(),
			DurationMS:   m.Duration.Milliseconds(),
			TotalIOs:     m.TotalIOs,
			RandomIOs:    m.RandomIOs,
			BytesRead:    m.BytesRead,
			BytesWritten: m.BytesWritten,
			Iterations:   m.Iterations,
			NumSCCs:      m.NumSCCs,
			INF:          m.INF,
			Note:         m.Note,
			Phases:       m.Phases,
		})
	}
	return r
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a Report written by WriteFile.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return Report{}, fmt.Errorf("bench: %s has schema %d, this binary expects %d", path, r.Schema, ReportSchema)
	}
	return r, nil
}

// CompareToBaseline gates current against a committed baseline and returns
// one violation string per problem.  The gate is on the accounted I/O counts
// — they are deterministic for a given code revision and workload, unlike
// wall-clock on shared CI runners — so a violation means the code now
// performs over (1+tolerance)× the total block transfers or random block
// transfers the baseline recorded (random I/O is the paper's headline cost,
// and a baseline of zero random I/Os is gated exactly: any new random I/O is
// a regression), or a run flipped to/from INF, or a baseline point
// disappeared.  Faster (fewer-I/O) results and extra points in current are
// never violations; durations are recorded in the report but not gated.
//
// The two reports must describe the same workload: comparing across a
// Quick/Scale/Experiment mismatch would misreport every point as a
// regression, so it is rejected up front as its own violation.
func CompareToBaseline(current, baseline Report, tolerance float64) []string {
	if current.Quick != baseline.Quick || current.Scale != baseline.Scale || current.Experiment != baseline.Experiment {
		return []string{fmt.Sprintf(
			"workload mismatch: this run is experiment=%q quick=%v scale=%d but the baseline was recorded with experiment=%q quick=%v scale=%d; rerun with matching flags or refresh the baseline",
			current.Experiment, current.Quick, current.Scale, baseline.Experiment, baseline.Quick, baseline.Scale)}
	}
	cur := map[string]ReportEntry{}
	for _, e := range current.Entries {
		if _, dup := cur[e.key()]; !dup {
			cur[e.key()] = e
		}
	}
	regressed := func(kind string, base, got int64) string {
		limit := int64(float64(base) * (1 + tolerance))
		if got <= limit {
			return ""
		}
		return fmt.Sprintf("%s I/Os regressed beyond %.0f%%: baseline %d, now %d (limit %d)", kind, tolerance*100, base, got, limit)
	}
	var violations []string
	for _, base := range baseline.Entries {
		got, ok := cur[base.key()]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from this run", base.key()))
			continue
		}
		if base.INF != got.INF {
			violations = append(violations, fmt.Sprintf("%s: INF flipped (baseline %v, now %v)", base.key(), base.INF, got.INF))
			continue
		}
		if base.INF {
			continue
		}
		if base.NumSCCs != got.NumSCCs {
			violations = append(violations, fmt.Sprintf("%s: SCC count changed (baseline %d, now %d)", base.key(), base.NumSCCs, got.NumSCCs))
		}
		if v := regressed("total", base.TotalIOs, got.TotalIOs); v != "" {
			violations = append(violations, fmt.Sprintf("%s: %s", base.key(), v))
		}
		if v := regressed("random", base.RandomIOs, got.RandomIOs); v != "" {
			violations = append(violations, fmt.Sprintf("%s: %s", base.key(), v))
		}
	}
	sort.Strings(violations)
	return violations
}

// equivalenceViolations is the shared engine of the two equivalence gates:
// measurements that agree on pointKey but differ in the compared dimension
// (dimOf) must agree on the INF status, the number of SCCs, the iteration
// count, and every accounted I/O count.  The first measurement seen at each
// point is the reference.
func equivalenceViolations(ms []Measurement, pointKey func(Measurement) string, dimOf func(Measurement) string) []string {
	points := map[string]Measurement{}
	var violations []string
	for _, m := range ms {
		k := pointKey(m)
		ref, ok := points[k]
		if !ok {
			points[k] = m
			continue
		}
		if dimOf(ref) == dimOf(m) {
			continue
		}
		pair := func(format string, refVal, mVal any) string {
			return fmt.Sprintf("%s: "+format, k, dimOf(ref), refVal, dimOf(m), mVal)
		}
		if ref.INF != m.INF {
			violations = append(violations, fmt.Sprintf("%s: INF differs between %s and %s", k, dimOf(ref), dimOf(m)))
			continue
		}
		if m.INF {
			continue
		}
		if ref.NumSCCs != m.NumSCCs {
			violations = append(violations, pair("SCC count differs between %s (%d) and %s (%d)", ref.NumSCCs, m.NumSCCs))
		}
		if ref.Iterations != m.Iterations {
			violations = append(violations, pair("iteration count differs between %s (%d) and %s (%d)", ref.Iterations, m.Iterations))
		}
		if ref.TotalIOs != m.TotalIOs || ref.RandomIOs != m.RandomIOs {
			violations = append(violations, pair("I/O counts differ between %s (%s) and %s (%s)",
				fmt.Sprintf("%d/%d", ref.TotalIOs, ref.RandomIOs), fmt.Sprintf("%d/%d", m.TotalIOs, m.RandomIOs)))
		}
		if ref.BytesRead != m.BytesRead || ref.BytesWritten != m.BytesWritten {
			violations = append(violations, pair("byte counts differ between %s (%s) and %s (%s)",
				fmt.Sprintf("%d/%d", ref.BytesRead, ref.BytesWritten), fmt.Sprintf("%d/%d", m.BytesRead, m.BytesWritten)))
		}
	}
	sort.Strings(violations)
	return violations
}

// VerifyStorageEquivalence checks the cross-backend guarantee of
// WithStorage across measurements that hold the same sweep on several
// storage backends: for every (experiment, x, series, workers) point, all
// backends must agree on the INF status, the number of SCCs, the iteration
// count, and every accounted I/O count.  It returns one violation string
// per disagreement.
func VerifyStorageEquivalence(ms []Measurement) []string {
	return equivalenceViolations(ms,
		func(m Measurement) string {
			return fmt.Sprintf("%s|%s|%s|w=%d", m.Experiment, m.X, m.Series, m.Workers)
		},
		func(m Measurement) string { return "storage=" + m.Storage })
}

// VerifyCodecEquivalence checks the result-equivalence guarantee of WithCodec
// across measurements that hold the same sweep under several codec families:
// for every (experiment, x, series, workers, storage) point, all codecs must
// agree on the INF status, the number of SCCs and the iteration count.  The
// I/O counts are deliberately NOT compared — changing them is what a
// compressing codec is for; CodecSavings quantifies that change.
func VerifyCodecEquivalence(ms []Measurement) []string {
	points := map[string]Measurement{}
	var violations []string
	for _, m := range ms {
		k := fmt.Sprintf("%s|%s|%s|w=%d|s=%s", m.Experiment, m.X, m.Series, m.Workers, m.Storage)
		ref, ok := points[k]
		if !ok {
			points[k] = m
			continue
		}
		if ref.Codec == m.Codec {
			continue
		}
		if ref.INF != m.INF {
			violations = append(violations, fmt.Sprintf("%s: INF differs between codec=%s and codec=%s", k, ref.Codec, m.Codec))
			continue
		}
		if m.INF {
			continue
		}
		if ref.NumSCCs != m.NumSCCs {
			violations = append(violations, fmt.Sprintf("%s: SCC count differs between codec=%s (%d) and codec=%s (%d)", k, ref.Codec, ref.NumSCCs, m.Codec, m.NumSCCs))
		}
		if ref.Iterations != m.Iterations {
			violations = append(violations, fmt.Sprintf("%s: iteration count differs between codec=%s (%d) and codec=%s (%d)", k, ref.Codec, ref.Iterations, m.Codec, m.Iterations))
		}
	}
	sort.Strings(violations)
	return violations
}

// CodecSavings aggregates, over every non-INF point measured under both
// codec families, the total bytes written and block I/Os of each family.
// Only points present in both families are summed, so the two sides describe
// the same workload.
type CodecSavings struct {
	BaseBytes, OtherBytes int64
	BaseIOs, OtherIOs     int64
	Points                int
}

// BytesReduction returns the fractional reduction in bytes written of the
// other family against the base family (0.3 = 30% fewer bytes).
func (s CodecSavings) BytesReduction() float64 {
	if s.BaseBytes <= 0 {
		return 0
	}
	return 1 - float64(s.OtherBytes)/float64(s.BaseBytes)
}

// IOReduction returns the fractional reduction in total block I/Os.
func (s CodecSavings) IOReduction() float64 {
	if s.BaseIOs <= 0 {
		return 0
	}
	return 1 - float64(s.OtherIOs)/float64(s.BaseIOs)
}

// CompareCodecs sums the paired measurements of the two codec families.
func CompareCodecs(ms []Measurement, baseCodec, otherCodec string) CodecSavings {
	base := map[string]Measurement{}
	key := func(m Measurement) string {
		return fmt.Sprintf("%s|%s|%s|w=%d|s=%s", m.Experiment, m.X, m.Series, m.Workers, m.Storage)
	}
	for _, m := range ms {
		if m.Codec == baseCodec && !m.INF {
			base[key(m)] = m
		}
	}
	var s CodecSavings
	for _, m := range ms {
		if m.Codec != otherCodec || m.INF {
			continue
		}
		b, ok := base[key(m)]
		if !ok {
			continue
		}
		s.BaseBytes += b.BytesWritten
		s.OtherBytes += m.BytesWritten
		s.BaseIOs += b.TotalIOs
		s.OtherIOs += m.TotalIOs
		s.Points++
	}
	return s
}

// VerifyShardEquivalence checks the result guarantee of the sharded
// contraction pre-pass across measurements that hold the same sweep at
// several shard counts: for every (experiment, x, series, workers, codec)
// point that completed at both shard counts, the number of SCCs must be
// identical.  Iteration and I/O counts are deliberately NOT compared — the
// pre-pass adds split/condense passes and changes where contraction
// happens — and neither is the INF status of budget-capped runs: the
// pre-pass shrinks the graph the capped algorithm sees, so a run that blew
// its budget unsharded may finish within it sharded.  An INF run carries no
// SCC count, so such pairs are skipped rather than compared.
func VerifyShardEquivalence(ms []Measurement) []string {
	points := map[string]Measurement{}
	var violations []string
	for _, m := range ms {
		k := fmt.Sprintf("%s|%s|%s|w=%d|c=%s", m.Experiment, m.X, m.Series, m.Workers, m.Codec)
		ref, ok := points[k]
		if !ok {
			points[k] = m
			continue
		}
		if ref.shardCount() == m.shardCount() {
			continue
		}
		if ref.INF || m.INF {
			continue
		}
		if ref.NumSCCs != m.NumSCCs {
			violations = append(violations, fmt.Sprintf("%s: SCC count differs between shards=%d (%d) and shards=%d (%d)", k, ref.shardCount(), ref.NumSCCs, m.shardCount(), m.NumSCCs))
		}
	}
	sort.Strings(violations)
	return violations
}

// VerifyWorkerEquivalence checks the core guarantee of WithWorkers across a
// report that holds the same sweep at several worker counts: for every
// (experiment, x, series) point, all worker counts must agree on the INF
// status, the number of SCCs, the iteration count, and every accounted I/O
// count.  It returns one violation string per disagreement.
func VerifyWorkerEquivalence(ms []Measurement) []string {
	return equivalenceViolations(ms,
		func(m Measurement) string {
			return fmt.Sprintf("%s|%s|%s", m.Experiment, m.X, m.Series)
		},
		func(m Measurement) string { return fmt.Sprintf("workers=%d", m.Workers) })
}
