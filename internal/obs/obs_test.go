package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Every positive bucket's range is [BucketUpper(b-1)+1, BucketUpper(b)]:
	// both endpoints must map back to b.
	for b := 1; b < 64; b++ {
		lo, hi := BucketUpper(b-1)+1, BucketUpper(b)
		if bucketOf(lo) != b || bucketOf(hi) != b {
			t.Errorf("bucket %d: endpoints %d..%d map to %d and %d",
				b, lo, hi, bucketOf(lo), bucketOf(hi))
		}
	}
	if BucketUpper(63) != math.MaxInt64 {
		t.Errorf("BucketUpper(63) = %d, want MaxInt64", BucketUpper(63))
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", BucketUpper(0))
	}
}

func TestHistogramObserve(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 1000, -7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 999 {
		t.Errorf("Sum = %d, want 999", h.Sum())
	}
	if h.Bucket(0) != 1 { // -7
		t.Errorf("bucket 0 = %d, want 1", h.Bucket(0))
	}
	if h.Bucket(2) != 2 { // 2, 3
		t.Errorf("bucket 2 = %d, want 2", h.Bucket(2))
	}
	if h.Bucket(10) != 1 { // 1000 ∈ [512, 1023]
		t.Errorf("bucket 10 = %d, want 1", h.Bucket(10))
	}
}

// TestHistogramObserveN: ObserveN(total, n) leaves the buckets and Count as
// n Observe(total/n) calls would, and Sum at exactly total, remainder
// included. A non-positive n records nothing.
func TestHistogramObserveN(t *testing.T) {
	cases := []struct{ total, n int64 }{
		{0, 1}, {7, 1}, {1000, 64}, {1023, 2}, {1 << 20, 3}, {-9, 4}, {5, 7},
	}
	got, want := &Histogram{}, &Histogram{}
	var sum int64
	for _, c := range cases {
		got.ObserveN(c.total, c.n)
		for i := int64(0); i < c.n; i++ {
			want.Observe(c.total / c.n)
		}
		sum += c.total
	}
	got.ObserveN(100, 0)
	got.ObserveN(100, -3)
	if got.Count() != want.Count() {
		t.Errorf("Count = %d, want %d", got.Count(), want.Count())
	}
	if got.Sum() != sum {
		t.Errorf("Sum = %d, want %d", got.Sum(), sum)
	}
	for b := 0; b < histBuckets; b++ {
		if got.Bucket(b) != want.Bucket(b) {
			t.Errorf("bucket %d = %d, want %d", b, got.Bucket(b), want.Bucket(b))
		}
	}
	var nilH *Histogram
	nilH.ObserveN(10, 2)
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Bucket(1) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestDiscardRegistry(t *testing.T) {
	if Discard.Counter("x") != nil || Discard.Gauge("x") != nil || Discard.Histogram("x") != nil {
		t.Fatal("Discard must hand out nil handles")
	}
	if !Discard.Now().IsZero() {
		t.Fatal("Discard.Now must be the zero time")
	}
	if len(Discard.Snapshot()) != 0 {
		t.Fatal("Discard snapshot must be empty")
	}
	var nilReg *Registry
	if nilReg.Counter("x") != nil || !nilReg.Now().IsZero() || len(nilReg.Snapshot()) != 0 {
		t.Fatal("nil registry must behave like Discard")
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry(nil)
	if r.Counter("a") != r.Counter("a") {
		t.Error("same-name counters must be the same handle")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Error("same-name gauges must be the same handle")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Error("same-name histograms must be the same handle")
	}
}

// TestSnapshotUnderConcurrentWriters hammers one registry from many
// goroutines while snapshotting; run with -race. The final snapshot must
// account for every write.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry(nil)
	const workers, perWorker = 8, 1000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader racing the writers
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := r.Counter("hits")
			h := r.Histogram("lat")
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i + 1))
				g.Set(float64(i))
			}
		}()
	}
	writers.Wait()
	close(stop)
	<-readerDone

	snap := r.Snapshot()
	if got := snap["hits"].(int64); got != workers*perWorker {
		t.Errorf("hits = %d, want %d", got, workers*perWorker)
	}
	hs := snap["lat"].(HistogramSnapshot)
	if hs.Count != workers*perWorker {
		t.Errorf("lat count = %d, want %d", hs.Count, workers*perWorker)
	}
	wantSum := int64(workers) * perWorker * (perWorker + 1) / 2
	if hs.Sum != wantSum {
		t.Errorf("lat sum = %d, want %d", hs.Sum, wantSum)
	}
	if g := snap["level"].(float64); g != perWorker-1 { //lint:allow floateq exact value stored by the last writer
		t.Errorf("level = %v, want %v", g, perWorker-1)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("mc.shots").Add(4096)
	r.Counter("mc.cache.hits").Add(7)
	r.Gauge("runtime.retry_risk.caliqec").Set(0.125)
	h := r.Histogram("mc.decode.latency")
	h.Observe(3)
	h.Observe(900)

	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteJSON not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}

	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a.String())
	}
	for _, key := range []string{"mc.shots", "mc.cache.hits", "runtime.retry_risk.caliqec", "mc.decode.latency"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("missing key %q in snapshot JSON", key)
		}
	}
	// Keys must appear in sorted order in the raw bytes.
	idxHits := strings.Index(a.String(), "mc.cache.hits")
	idxShots := strings.Index(a.String(), "mc.shots")
	if idxHits < 0 || idxShots < 0 || idxHits > idxShots {
		t.Errorf("keys not sorted in output:\n%s", a.String())
	}

	var hs HistogramSnapshot
	if err := json.Unmarshal(decoded["mc.decode.latency"], &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Count != 2 || hs.Sum != 903 || len(hs.Buckets) != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if hs.Buckets[0].Le != 3 || hs.Buckets[1].Le != 1023 {
		t.Errorf("bucket bounds = %d, %d; want 3, 1023", hs.Buckets[0].Le, hs.Buckets[1].Le)
	}
}

func TestRegistryClock(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	r := NewRegistry(func() time.Time { return at })
	if !r.Now().Equal(at) {
		t.Errorf("Now() = %v, want %v", r.Now(), at)
	}
}
