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

// key identifies a measurement point.  A non-default storage backend, codec
// family or shard count is part of the identity, so a report can hold the
// same sweep under several of them.
func (e ReportEntry) key() string {
	k := fmt.Sprintf("%s|%s|%s", e.Experiment, e.X, e.Series)
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

// BaselineTolerance is the fractional I/O regression CompareToBaseline
// allows against the baseline.
const BaselineTolerance = 0.25

// CompareToBaseline gates current against a committed baseline and returns
// one violation string per problem.  The gate is on the accounted I/O counts
// — they are deterministic for a given code revision and workload, unlike
// wall-clock on shared CI runners — so a violation means the code now
// performs over (1+BaselineTolerance)× the total block transfers or random
// block transfers the baseline recorded (random I/O is the paper's headline
// cost, and a baseline of zero random I/Os is gated exactly: any new random
// I/O is a regression), or a run flipped to/from INF, or a baseline point
// disappeared.  Faster (fewer-I/O) results and extra points in current are
// never violations; durations are recorded in the report but not gated.
//
// The two reports must describe the same workload: comparing across a
// Quick/Scale/Experiment mismatch would misreport every point as a
// regression, so it is rejected up front as its own violation.
func CompareToBaseline(current, baseline Report) []string {
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
		limit := int64(float64(base) * (1 + BaselineTolerance))
		if got <= limit {
			return ""
		}
		return fmt.Sprintf("%s I/Os regressed beyond %.0f%%: baseline %d, now %d (limit %d)", kind, BaselineTolerance*100, base, got, limit)
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
