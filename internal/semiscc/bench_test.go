package semiscc

import (
	"path/filepath"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/record"
)

// BenchmarkSemiExternal solves serve-large's graph, the one sccserve ingests
// at its defaults: Large-SCC at scale 1000 and seed 1 (99,969 nodes, 400,000
// edges), staged once as a varint edge file, solved at B = 64 KiB and
// M = 4 MiB.  Its edges take 3.2 MB, past M/2, so the solve streams.  Besides
// the time it reports the edge scans and the accounted I/Os of one solve.
func BenchmarkSemiExternal(b *testing.B) {
	dir := b.TempDir()
	cfg, err := iomodel.Config{
		BlockSize: 64 << 10, Memory: 4 << 20, TempDir: dir, Codec: record.FamilyVarint, Stats: &iomodel.Stats{},
	}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	p := graphgen.LargeSCCParams(1000)
	p.Seed = 1
	path := filepath.Join(dir, "large.edges")
	if _, err := p.WriteTo(path, cfg); err != nil {
		b.Fatal(err)
	}
	g, err := edgefile.GraphFromEdgeFile(path, dir, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var res Result
	before := cfg.Stats.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = Compute(g, dir, Options{}, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := blockio.Remove(res.LabelPath, cfg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(res.EdgeScans), "scans")
	b.ReportMetric(float64(cfg.Stats.Snapshot().Sub(before).TotalIOs())/float64(b.N), "ios/op")
}
