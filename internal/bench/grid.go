package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// A grid runs one experiment at every point of the cross product of its
// storage backends, codec families and shard counts.  Each axis declares
// what a change along it must leave alone; CheckGrid holds the measurements
// to it.

// field is one compared quantity of a measurement.
type field struct {
	name string
	get  func(Measurement) any
}

var (
	sccCount     = field{"SCC count", func(m Measurement) any { return m.NumSCCs }}
	partition    = field{"partition", func(m Measurement) any { return m.Partition }}
	iterations   = field{"iteration count", func(m Measurement) any { return m.Iterations }}
	totalIOs     = field{"total I/Os", func(m Measurement) any { return m.TotalIOs }}
	randomIOs    = field{"random I/Os", func(m Measurement) any { return m.RandomIOs }}
	bytesRead    = field{"bytes read", func(m Measurement) any { return m.BytesRead }}
	bytesWritten = field{"bytes written", func(m Measurement) any { return m.BytesWritten }}
)

// axis is one dimension of the grid and its invariant: between two
// measurements of one (experiment, x, series) point that differ only on
// this axis, every field in must matches.  With sameINF the INF status must
// match as well; without it a pair in which either run is INF is not
// compared.  INF runs carry no results, so nothing else is compared for
// them.
type axis struct {
	name    string
	value   func(Measurement) string
	sameINF bool
	must    []field
}

// axes is the grid's axis table.
//   - The storage backend never changes what a run computes or what it is
//     charged (mem ≡ os).
//   - A codec changes the bytes, and so the blocks, a file occupies, never
//     the labelling; varint's floors are checked by codecFloors.
//   - The sharded pre-pass keeps the partition but changes what the
//     algorithm under measurement sees: a budget-capped run that blew its
//     budget unsharded may complete sharded.
var axes = []axis{
	{"storage", func(m Measurement) string { return m.Storage }, true,
		[]field{sccCount, partition, iterations, totalIOs, randomIOs, bytesRead, bytesWritten}},
	{"codec", func(m Measurement) string { return m.Codec }, true,
		[]field{sccCount, partition, iterations}},
	{"shards", func(m Measurement) string { return strconv.Itoa(m.shardCount()) }, false,
		[]field{sccCount, partition}},
}

// Varint's floors across the codec axis: summed over the points both
// families completed, varint must write at least varintBytesFloor fewer
// bytes than fixed and charge fewer block I/Os.
const varintBytesFloor = 0.30

// point names the (experiment, x, series) point a measurement belongs to.
func (m Measurement) point() string {
	return fmt.Sprintf("%s|%s|%s", m.Experiment, m.X, m.Series)
}

// CheckGrid holds every two measurements of one (experiment, x, series)
// point that differ on exactly one axis to that axis's invariant, and a grid
// that ran both codec families to varint's floors.  It returns one
// violation per broken invariant, sorted.
func CheckGrid(ms []Measurement) []string {
	byPoint := map[string][]Measurement{}
	for _, m := range ms {
		byPoint[m.point()] = append(byPoint[m.point()], m)
	}
	var violations []string
	for _, runs := range byPoint {
		for i, a := range runs {
			for _, b := range runs[i+1:] {
				var differ []axis
				for _, ax := range axes {
					if ax.value(a) != ax.value(b) {
						differ = append(differ, ax)
					}
				}
				if len(differ) == 1 {
					violations = append(violations, differ[0].check(a, b)...)
				}
			}
		}
	}
	violations = append(violations, codecFloors(ms)...)
	sort.Strings(violations)
	return violations
}

// check compares a and b, which differ only on ax.
func (ax axis) check(a, b Measurement) []string {
	var rest []string
	for _, other := range axes {
		if other.name != ax.name {
			rest = append(rest, other.name+"="+other.value(a))
		}
	}
	where := fmt.Sprintf("%s (%s): %s=%s vs %s=%s", a.point(), strings.Join(rest, " "),
		ax.name, ax.value(a), ax.name, ax.value(b))
	if a.INF != b.INF && ax.sameINF {
		return []string{fmt.Sprintf("%s: INF differs (%v vs %v)", where, a.INF, b.INF)}
	}
	if a.INF || b.INF {
		return nil
	}
	var violations []string
	for _, f := range ax.must {
		if va, vb := f.get(a), f.get(b); va != vb {
			violations = append(violations, fmt.Sprintf("%s: %s differs (%v vs %v)", where, f.name, va, vb))
		}
	}
	return violations
}

// codecFloors checks varint's floors when the grid ran both codec families.
func codecFloors(ms []Measurement) []string {
	ran := map[string]bool{}
	for _, m := range ms {
		ran[m.Codec] = true
	}
	if !ran["fixed"] || !ran["varint"] {
		return nil
	}
	s := CompareCodecs(ms, "fixed", "varint")
	if s.Points == 0 {
		return []string{"codec: no point completed under both fixed and varint"}
	}
	var violations []string
	if s.BytesReduction() < varintBytesFloor {
		violations = append(violations, fmt.Sprintf("codec: varint wrote only %.1f%% fewer bytes than fixed (floor %.0f%%)",
			s.BytesReduction()*100, varintBytesFloor*100))
	}
	if s.OtherIOs >= s.BaseIOs {
		violations = append(violations, fmt.Sprintf("codec: varint did not charge fewer block I/Os than fixed (fixed %d, varint %d)",
			s.BaseIOs, s.OtherIOs))
	}
	return violations
}

// Summary describes a grid run: for every axis with more than one value,
// one line per value with the total wall time of its runs (an INF run has
// none), and, when both codec families ran, varint's byte and block-I/O
// reduction.
func Summary(ms []Measurement) string {
	var b strings.Builder
	for _, ax := range axes {
		var values []string
		wall := map[string]time.Duration{}
		for _, m := range ms {
			v := ax.value(m)
			if _, ok := wall[v]; !ok {
				values = append(values, v)
			}
			wall[v] += m.Duration
		}
		if len(values) < 2 {
			continue
		}
		for _, v := range values {
			fmt.Fprintf(&b, "wall time %s=%s: %s\n", ax.name, v, wall[v].Round(time.Millisecond))
		}
	}
	if s := CompareCodecs(ms, "fixed", "varint"); s.Points > 0 {
		fmt.Fprintf(&b, "codec comparison (varint) over %d point(s): bytes written %d -> %d (%.1f%% reduction), block I/Os %d -> %d (%.1f%% reduction)\n",
			s.Points, s.BaseBytes, s.OtherBytes, s.BytesReduction()*100, s.BaseIOs, s.OtherIOs, s.IOReduction()*100)
	}
	return b.String()
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

// CompareCodecs sums the paired measurements of the two codec families: a
// pair is one point on one storage backend at one shard count.
func CompareCodecs(ms []Measurement, baseCodec, otherCodec string) CodecSavings {
	base := map[string]Measurement{}
	key := func(m Measurement) string {
		return fmt.Sprintf("%s|s=%s|n=%d", m.point(), m.Storage, m.shardCount())
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

// partitionFingerprint hashes the labelling in the label file at path with
// every component named by its smallest member, so two labellings of one
// partition hash alike whichever member ids they chose.  The file is sorted
// by node, so the first node seen with an SCC id is that component's
// smallest member, and one scan holds one entry per component.  The scan is
// charged to a private Stats, outside the run's accounted I/O.
func partitionFingerprint(path string, cfg iomodel.Config) (uint64, error) {
	cfg.Stats = &iomodel.Stats{}
	cfg.Prof = nil
	r, err := recio.NewReader(path, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, fmt.Errorf("bench: partition fingerprint: %w", err)
	}
	defer r.Close()
	names := map[record.SCCID]record.NodeID{}
	h := fnv.New64a()
	var buf [8]byte
	for {
		l, err := r.Read()
		if err == io.EOF {
			return h.Sum64(), nil
		}
		if err != nil {
			return 0, fmt.Errorf("bench: partition fingerprint: %w", err)
		}
		name, ok := names[l.SCC]
		if !ok {
			name = l.Node
			names[l.SCC] = name
		}
		binary.LittleEndian.PutUint32(buf[:4], l.Node)
		binary.LittleEndian.PutUint32(buf[4:], name)
		h.Write(buf[:])
	}
}
