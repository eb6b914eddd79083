package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"extscc"
	"extscc/internal/condense"
	"extscc/internal/graphgen"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// oracle is the single-threaded ground truth a server's answers are checked
// against: the labelling streamed from the server's own Result plus a BFS
// DAG built in memory from the same edge list.
type oracle struct {
	labels map[extscc.NodeID]uint32
	dag    *condense.DAG
}

func buildOracle(t *testing.T, s *Server, edges []record.Edge) *oracle {
	t.Helper()
	labels := map[extscc.NodeID]uint32{}
	for node, scc := range s.res.Stream() {
		labels[node] = scc
	}
	if err := s.res.Err(); err != nil {
		t.Fatal(err)
	}
	return &oracle{labels: labels, dag: condense.FromMemory(labels, edges)}
}

func (o *oracle) scc(n extscc.NodeID) (uint32, bool) {
	scc, ok := o.labels[n]
	return scc, ok
}

func (o *oracle) reach(u, v extscc.NodeID) (bool, bool) {
	su, okU := o.labels[u]
	sv, okV := o.labels[v]
	if !okU || !okV {
		return false, false
	}
	return o.dag.Reaches(su, sv), true
}

// serveBackends runs fn once per storage backend.
func serveBackends(t *testing.T, fn func(t *testing.T, b extscc.Storage)) {
	t.Run("os", func(t *testing.T) { fn(t, storage.OS()) })
	t.Run("mem", func(t *testing.T) { fn(t, storage.NewMem()) })
}

func newTestServer(t *testing.T, b extscc.Storage, codec string, edges []record.Edge) *Server {
	t.Helper()
	tempDir := ""
	if b.Name() == "os" {
		tempDir = t.TempDir()
	}
	s, err := New(context.Background(), Options{
		Source:  extscc.SliceSource(edges),
		Storage: b,
		Codec:   codec,
		TempDir: tempDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServerConcurrentOracle hammers a server with mixed membership,
// same-component and reachability queries from many goroutines and checks
// every answer against the single-threaded oracle, on both storage backends
// and under both lookup paths: a binary search over record offsets (fixed)
// and a frame-index footer probe (varint).
func TestServerConcurrentOracle(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			serveBackends(t, func(t *testing.T, b extscc.Storage) {
				edges := graphgen.Random(300, 700, 17)
				s := newTestServer(t, b, codec, edges)
				orc := buildOracle(t, s, edges)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				const goroutines = 12
				const perG = 150
				errc := make(chan error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						client := ts.Client()
						for i := 0; i < perG; i++ {
							// Deterministic but varied: some ids beyond the node
							// range exercise the 404 path.
							u := extscc.NodeID((g*977 + i*31) % 330)
							v := extscc.NodeID((g*313 + i*57) % 330)
							switch i % 3 {
							case 0:
								var got sccResponse
								code := getJSON(t, client, fmt.Sprintf("%s/scc/%d", ts.URL, u), &got)
								want, ok := orc.scc(u)
								if ok != (code == http.StatusOK) {
									errc <- fmt.Errorf("/scc/%d status %d, oracle found=%v", u, code, ok)
									return
								}
								if ok && got.SCC != want {
									errc <- fmt.Errorf("/scc/%d = %d, oracle %d", u, got.SCC, want)
									return
								}
							case 1:
								var got pairResponse
								code := getJSON(t, client, fmt.Sprintf("%s/same/%d/%d", ts.URL, u, v), &got)
								su, okU := orc.scc(u)
								sv, okV := orc.scc(v)
								if (okU && okV) != (code == http.StatusOK) {
									errc <- fmt.Errorf("/same/%d/%d status %d, oracle found=%v", u, v, code, okU && okV)
									return
								}
								if okU && okV && got.Answer != (su == sv) {
									errc <- fmt.Errorf("/same/%d/%d = %v, oracle %v", u, v, got.Answer, su == sv)
									return
								}
							default:
								var got pairResponse
								code := getJSON(t, client, fmt.Sprintf("%s/reach/%d/%d", ts.URL, u, v), &got)
								want, ok := orc.reach(u, v)
								if ok != (code == http.StatusOK) {
									errc <- fmt.Errorf("/reach/%d/%d status %d, oracle found=%v", u, v, code, ok)
									return
								}
								if ok && got.Answer != want {
									errc <- fmt.Errorf("/reach/%d/%d = %v, oracle %v", u, v, got.Answer, want)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Fatal(err)
				}

				// The stats endpoint must report the traffic just served.
				var stats statsResponse
				if code := getJSON(t, ts.Client(), ts.URL+"/stats", &stats); code != http.StatusOK {
					t.Fatalf("/stats status %d", code)
				}
				if stats.Serving.Queries < goroutines*perG {
					t.Fatalf("stats report %d queries, served at least %d", stats.Serving.Queries, goroutines*perG)
				}
				if stats.Graph.SCCs != s.res.NumSCCs {
					t.Fatalf("stats SCCs = %d, result %d", stats.Graph.SCCs, s.res.NumSCCs)
				}
				if stats.Serving.Batches == 0 || stats.Serving.BatchedLookups < stats.Serving.Batches {
					t.Fatalf("implausible batching counters: %+v", stats.Serving)
				}
			})
		})
	}
}

// TestServerBatchingCoalesces pins natural batching: the requests that queue
// while one sweep runs are answered by the next single sweep, or by as few
// sweeps as the batch cap allows, with no timer.  A stub lookup holds the
// first sweep until every request is queued, so the outcome does not depend
// on scheduling; a dispatcher that sweeps one request at a time would report
// a sweep per request.
func TestServerBatchingCoalesces(t *testing.T) {
	for _, tc := range []struct {
		maxBatch, queued int
		want             []int
	}{
		{256, 32, []int{1, 32}},
		{8, 20, []int{1, 8, 8, 4}},
	} {
		if got := sweepSizes(t, tc.maxBatch, tc.queued); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("maxBatch %d, %d queued: sweep sizes %v, want %v", tc.maxBatch, tc.queued, got, tc.want)
		}
	}
}

// sweepSizes holds a labelStore's first sweep until queued more one-node
// lookups wait behind it, releases it, checks every answer, and returns the
// node count of each sweep.
func sweepSizes(t *testing.T, maxBatch, queued int) []int {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int // written by the dispatcher only, read after close
	s := newLabelStore(func(nodes []extscc.NodeID) (map[extscc.NodeID]uint32, error) {
		sizes = append(sizes, len(nodes))
		if len(sizes) == 1 {
			close(entered)
			<-release
		}
		out := make(map[extscc.NodeID]uint32, len(nodes))
		for _, n := range nodes {
			if n%2 == 0 { // odd ids are absent
				out[n] = uint32(n) + 7
			}
		}
		return out, nil
	}, maxBatch)

	var wg sync.WaitGroup
	errc := make(chan error, queued+1)
	ask := func(n extscc.NodeID) {
		defer wg.Done()
		got, err := s.lookup([]extscc.NodeID{n})
		if err != nil {
			errc <- err
			return
		}
		scc, ok := got[n]
		if ok != (n%2 == 0) || (ok && scc != uint32(n)+7) || len(got) > 1 {
			errc <- fmt.Errorf("lookup(%d) = %v", n, got)
		}
	}
	wg.Add(1)
	go ask(1000)
	<-entered
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go ask(extscc.NodeID(i))
	}
	for {
		s.mu.Lock()
		n := len(s.queue)
		s.mu.Unlock()
		if n == queued {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	s.close()
	if _, err := s.lookup([]extscc.NodeID{1}); err != errClosed {
		t.Fatalf("lookup after close: %v, want errClosed", err)
	}
	if batches, batched := s.stats(); batches != int64(len(sizes)) || batched != int64(queued+1) {
		t.Fatalf("stats report %d sweeps of %d lookups, want %d of %d", batches, batched, len(sizes), queued+1)
	}
	return sizes
}

// TestServerCacheServesRepeats pins the LRU: repeating one query must be
// answered from cache, not the dispatcher.
func TestServerCacheServesRepeats(t *testing.T) {
	edges := graphgen.Random(100, 250, 9)
	s := newTestServer(t, storage.OS(), "fixed", edges)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		if code := getJSON(t, ts.Client(), ts.URL+"/scc/5", nil); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	hits, _ := s.cache.stats()
	if hits < 9 {
		t.Fatalf("LRU hits = %d after 10 identical queries, want >= 9", hits)
	}
	_, batched := s.store.stats()
	if batched > 1 {
		t.Fatalf("dispatcher saw %d lookups for a fully cacheable workload", batched)
	}
}

// TestServerGracefulShutdown boots Listen/Serve, issues live queries, then
// cancels the context: Serve must drain and return nil, queries issued after
// shutdown must fail to connect, and — the cleanup guarantee — the backend
// must hold zero leftover files from either the run or serve directories.
func TestServerGracefulShutdown(t *testing.T) {
	serveBackends(t, func(t *testing.T, b extscc.Storage) {
		tempDir := ""
		if b.Name() == "os" {
			tempDir = t.TempDir()
		}
		edges := graphgen.Random(200, 480, 23)
		s, err := New(context.Background(), Options{
			Source:  extscc.SliceSource(edges),
			Storage: b,
			TempDir: tempDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Serve(ctx) }()

		url := "http://" + addr.String()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never became healthy: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if code := getJSON(t, http.DefaultClient, url+"/scc/0", nil); code != http.StatusOK {
			t.Fatalf("live query status %d", code)
		}

		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Serve returned %v after cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after cancellation")
		}
		if _, err := http.Get(url + "/healthz"); err == nil {
			t.Fatal("server still accepting connections after shutdown")
		}

		// Zero leaked artifacts: the os backend's serve/run dirs lived under
		// tempDir; the mem backend must be entirely empty.
		if b.Name() == "os" {
			entries, err := os.ReadDir(tempDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("leaked files after shutdown: %v", names)
			}
		} else {
			files, err := b.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Fatalf("mem backend still holds %v after shutdown", files)
			}
		}
	})
}

// TestServerRejectsBadInput pins the HTTP error surface: non-numeric ids are
// 400, absent endpoints in pair queries are 404 naming the missing node.
func TestServerRejectsBadInput(t *testing.T) {
	s := newTestServer(t, storage.OS(), "", graphgen.Path(10))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for url, want := range map[string]int{
		"/scc/abc":        http.StatusBadRequest,
		"/scc/-1":         http.StatusBadRequest,
		"/scc/4294967296": http.StatusBadRequest, // overflows uint32
		"/scc/99":         http.StatusNotFound,
		"/same/0/99":      http.StatusNotFound,
		"/reach/99/0":     http.StatusNotFound,
		"/same/0/1":       http.StatusOK,
		"/nope":           http.StatusNotFound,
	} {
		if code := getJSON(t, ts.Client(), ts.URL+url, nil); code != want {
			t.Fatalf("GET %s status %d, want %d", url, code, want)
		}
	}
}

// TestNewCancelled pins that a context cancelled during construction leaves
// nothing behind on the backend.
func TestNewCancelled(t *testing.T) {
	tempDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx, Options{
		Source:  extscc.SliceSource(graphgen.Random(500, 1200, 3)),
		Storage: storage.OS(),
		TempDir: tempDir,
	}); err == nil {
		t.Fatal("New succeeded under a cancelled context")
	}
	entries, err := os.ReadDir(tempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled New leaked files: %v", entries)
	}
}
