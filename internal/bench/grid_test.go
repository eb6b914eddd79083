package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// gridPair returns two measurements of one point that differ on the named
// axis only (and in wall time, which no axis holds invariant).  A codec
// pair's varint side writes half the bytes and charges half the I/Os of the
// fixed side, which keeps varint's floors.
func gridPair(axisName string) (Measurement, Measurement) {
	a := Measurement{
		Experiment: "fig7", X: "M=0.50|V|", Series: AlgoExtOp,
		Storage: "os", Codec: "fixed", Shards: 1,
		Duration: 2 * time.Second, TotalIOs: 1000, RandomIOs: 3,
		BytesRead: 40_000, BytesWritten: 50_000,
		Iterations: 2, NumSCCs: 42, Partition: 0xfeed,
	}
	b := a
	b.Duration = time.Second
	switch axisName {
	case "storage":
		b.Storage = "mem"
	case "codec":
		b.Codec = "varint"
		b.BytesRead, b.BytesWritten, b.TotalIOs = a.BytesRead/2, a.BytesWritten/2, a.TotalIOs/2
	case "shards":
		b.Shards = 4
	}
	return a, b
}

// breaks changes one compared field of a measurement, by field name.
var breaks = map[string]func(*Measurement){
	"SCC count":       func(m *Measurement) { m.NumSCCs++ },
	"partition":       func(m *Measurement) { m.Partition++ },
	"iteration count": func(m *Measurement) { m.Iterations++ },
	"total I/Os":      func(m *Measurement) { m.TotalIOs++ },
	"random I/Os":     func(m *Measurement) { m.RandomIOs++ },
	"bytes read":      func(m *Measurement) { m.BytesRead++ },
	"bytes written":   func(m *Measurement) { m.BytesWritten++ },
	"INF": func(m *Measurement) {
		*m = Measurement{Experiment: m.Experiment, X: m.X, Series: m.Series, Storage: m.Storage, Codec: m.Codec, Shards: m.Shards, INF: true}
	},
}

// wantOneViolation fails unless vs is exactly one well-formed violation
// that names the point, the axis values and every word of want.
func wantOneViolation(t *testing.T, vs []string, want ...string) {
	t.Helper()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %q", len(vs), vs)
	}
	if strings.Contains(vs[0], "%!") {
		t.Fatalf("violation has a formatting bug: %s", vs[0])
	}
	for _, w := range want {
		if !strings.Contains(vs[0], w) {
			t.Fatalf("violation %q does not mention %q", vs[0], w)
		}
	}
}

// TestCheckGrid holds the axis table to its invariants: per axis, a pair
// that keeps the invariant passes, and breaking any one invariant field
// gives exactly one well-formed violation.
func TestCheckGrid(t *testing.T) {
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			a, b := gridPair(ax.name)
			// A second point that keeps the invariant, so that varint's
			// floors still see a completed pair when b is made INF.
			c, d := gridPair(ax.name)
			c.X, d.X = "M=0.75|V|", "M=0.75|V|"
			if v := CheckGrid([]Measurement{a, b, c, d}); len(v) != 0 {
				t.Fatalf("a pair that keeps the invariant reported %q", v)
			}
			fields := ax.must
			if ax.sameINF {
				fields = append([]field{{name: "INF"}}, fields...)
			}
			for _, f := range fields {
				broken := b
				brk, ok := breaks[f.name]
				if !ok {
					t.Fatalf("no way to break field %q", f.name)
				}
				brk(&broken)
				wantOneViolation(t, CheckGrid([]Measurement{a, broken, c, d}),
					a.point(), f.name+" differs", ax.name+"="+ax.value(a), ax.name+"="+ax.value(b))
			}
		})
	}

	t.Run("codec pair with different I/O counts", func(t *testing.T) {
		a, b := gridPair("codec")
		b.TotalIOs, b.RandomIOs, b.BytesRead = a.TotalIOs-1, a.RandomIOs+1, a.BytesRead-1
		if v := CheckGrid([]Measurement{a, b}); len(v) != 0 {
			t.Fatalf("reported %q", v)
		}
	})
	t.Run("shard pair whose INF status differs", func(t *testing.T) {
		a, b := gridPair("shards")
		breaks["INF"](&a)
		if v := CheckGrid([]Measurement{a, b}); len(v) != 0 {
			t.Fatalf("reported %q", v)
		}
	})
	t.Run("shard pair with equal SCC counts and another partition", func(t *testing.T) {
		a, b := gridPair("shards")
		b.Partition = 0xbeef
		wantOneViolation(t, CheckGrid([]Measurement{a, b}), "partition differs", "shards=1", "shards=4")
	})
	t.Run("pairs that differ on two axes or points are not compared", func(t *testing.T) {
		a, b := gridPair("storage")
		b.Shards, b.TotalIOs = 4, a.TotalIOs+1
		c := a
		c.Experiment = "fig6"
		c.NumSCCs++
		if v := CheckGrid([]Measurement{a, b, c}); len(v) != 0 {
			t.Fatalf("reported %q", v)
		}
	})
	t.Run("varint writing only 29% fewer bytes", func(t *testing.T) {
		a, b := gridPair("codec")
		b.BytesWritten = a.BytesWritten * 71 / 100
		wantOneViolation(t, CheckGrid([]Measurement{a, b}), "codec: varint wrote only 29.0% fewer bytes", "floor 30%")
	})
	t.Run("varint charging equal I/Os", func(t *testing.T) {
		a, b := gridPair("codec")
		b.TotalIOs = a.TotalIOs
		wantOneViolation(t, CheckGrid([]Measurement{a, b}), "codec: varint did not charge fewer block I/Os", "fixed 1000, varint 1000")
	})
	t.Run("no point completed under both codecs", func(t *testing.T) {
		a, b := gridPair("codec")
		breaks["INF"](&b)
		v := CheckGrid([]Measurement{a, b})
		if len(v) != 2 || !strings.Contains(strings.Join(v, "\n"), "no point completed under both") {
			t.Fatalf("want the INF violation and the floors' no-point violation, got %q", v)
		}
	})
}

// TestSummary pins the wall-time lines: one per value of every axis that
// has more than one.
func TestSummary(t *testing.T) {
	a, b := gridPair("shards")
	c := b
	c.Series = AlgoDFS
	c.Duration = 500 * time.Millisecond
	got := Summary([]Measurement{a, b, c})
	want := "wall time shards=1: 2s\nwall time shards=4: 1.5s\n"
	if got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
	a, b = gridPair("codec")
	if got := Summary([]Measurement{a, b}); !strings.Contains(got, "bytes written 50000 -> 25000 (50.0% reduction)") {
		t.Fatalf("Summary lacks the codec line: %q", got)
	}
}

// fingerprint writes labels as a label file and fingerprints it.
func fingerprint(t *testing.T, labels []record.Label) uint64 {
	t.Helper()
	cfg := iomodel.Config{BlockSize: 256, Memory: 64 * 1024, TempDir: t.TempDir(), Stats: &iomodel.Stats{}}
	path := filepath.Join(t.TempDir(), "labels.bin")
	if err := recio.WriteSlice(path, record.LabelCodec{}, cfg, labels); err != nil {
		t.Fatal(err)
	}
	before := cfg.Stats.Snapshot()
	fp, err := partitionFingerprint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stats.Snapshot() != before {
		t.Fatal("the fingerprint scan was charged to the run's Stats")
	}
	return fp
}

func TestPartitionFingerprint(t *testing.T) {
	// {0, 2, 4}, {1, 3}, {5}, each component named by its smallest member,
	// and again named by other members.
	bySmallest := []record.Label{{Node: 0, SCC: 0}, {Node: 1, SCC: 1}, {Node: 2, SCC: 0}, {Node: 3, SCC: 1}, {Node: 4, SCC: 0}, {Node: 5, SCC: 5}}
	byOthers := []record.Label{{Node: 0, SCC: 4}, {Node: 1, SCC: 3}, {Node: 2, SCC: 4}, {Node: 3, SCC: 3}, {Node: 4, SCC: 4}, {Node: 5, SCC: 5}}
	// Node 4 moves to {1, 3}.
	moved := []record.Label{{Node: 0, SCC: 0}, {Node: 1, SCC: 1}, {Node: 2, SCC: 0}, {Node: 3, SCC: 1}, {Node: 4, SCC: 1}, {Node: 5, SCC: 5}}

	fp := fingerprint(t, bySmallest)
	if got := fingerprint(t, byOthers); got != fp {
		t.Fatalf("one partition under other names: fingerprint %x, want %x", got, fp)
	}
	if got := fingerprint(t, moved); got == fp {
		t.Fatalf("moving node 4 to another component left the fingerprint at %x", fp)
	}
}

// TestRunGridTable1Once runs table1 over the 4-point grid {fixed, varint} ×
// {1, 2} shards through RunGrid, the loop sccbench runs: table1 depends on
// no axis, so its three rows come once.
func TestRunGridTable1Once(t *testing.T) {
	ms, err := RunGrid("table1", quickConfig(t), []storage.Backend{nil}, []string{"fixed", "varint"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("a 4-point table1 grid returned %d rows, want 3", len(ms))
	}
}
