// Package extscc computes strongly connected components (SCCs) of directed
// graphs that are too large for main memory, implementing the
// contraction–expansion algorithm of Zhang, Qin and Yu, "Contract & Expand:
// I/O Efficient SCCs Computing" (ICDE 2014), together with the baselines the
// paper compares against.
//
// The public surface is an Engine with four pluggable axes:
//
//   - Algorithms are registered by name (Register, Algorithms, Lookup);
//     the built-ins are ext-scc, ext-scc-op, dfs-scc, em-scc and semi-scc.
//   - Sources supply the input graph: FileSource (binary edge file),
//     SliceSource (in-memory edges), TextSource ("u v" text lines),
//     GeneratorSource (synthetic workloads) and PreparedSource (pre-staged
//     files).  Anything that stages an edge file can implement Source.
//   - Storage selects where every file of a run lives: OSStorage (local
//     disk, the default) or MemStorage (fully in RAM), chosen with
//     WithStorage.  The backend never changes the labelling or the
//     accounted I/O — only where the bytes live.  WithShards splits the
//     computation itself into concurrent per-shard contraction runs.
//   - Codecs select how records are laid out on disk: CodecVarint
//     (delta+varint compressed frames, the default) or CodecFixed (the
//     frameless record-indexed layout), chosen with WithCodec.  The codec
//     never changes the labelling — only how many bytes, and therefore
//     blocks, every file costs; readers auto-detect each file's layout.
//   - Results stream: Result.Stream iterates (node, label) pairs directly
//     from the backend, so consuming the labelling never requires the node
//     set to fit in memory.
//
// A minimal computation:
//
//	eng, err := extscc.New(extscc.WithMemory(64 << 20))
//	if err != nil { ... }
//	res, err := eng.Run(ctx, extscc.FileSource("web.edges"))
//	if err != nil { ... }
//	defer res.Close()
//	for node, scc := range res.Stream() { ... }
//
// Runs are cancelled through the context: the contraction-based algorithms
// stop within one contraction iteration and remove every temporary file.
//
// An SCC label is an opaque uint32; two nodes belong to the same strongly
// connected component exactly when their labels are equal, and every label
// is the identifier of one of the component's member nodes.
package extscc

import "extscc/internal/record"

// Edge is a directed edge from U to V.
type Edge = record.Edge

// Label assigns a node to a strongly connected component.
type Label = record.Label

// NodeID identifies a node.
type NodeID = record.NodeID
