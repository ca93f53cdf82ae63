package fedcore

import (
	"testing"
	"time"
)

// meanAgg is a minimal FedAvg-style aggregator for engine tests (the real
// strategies live in internal/fed, which imports this package).
type meanAgg struct{}

func (meanAgg) Name() string { return "mean" }

func (meanAgg) Aggregate(uploads []Payload) ([]Payload, Payload) {
	dim := len(uploads[0])
	global := make(Payload, dim)
	for _, u := range uploads {
		for j, v := range u {
			global[j] += v
		}
	}
	inv := 1.0 / float64(len(uploads))
	for j := range global {
		global[j] *= inv
	}
	personalized := make([]Payload, len(uploads))
	for i := range personalized {
		personalized[i] = append(Payload(nil), global...)
	}
	return personalized, global
}

func mustEngine(t *testing.T, k, clients int, seed int64, initial Payload) *Engine {
	t.Helper()
	e, err := New(meanAgg{}, initial, Options{K: k, Clients: clients, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Payload{1}, Options{Clients: 2}); err == nil {
		t.Fatal("nil aggregator should fail")
	}
	if _, err := New(meanAgg{}, nil, Options{Clients: 2}); err == nil {
		t.Fatal("empty initial payload should fail")
	}
	if _, err := New(meanAgg{}, Payload{1}, Options{Clients: 0}); err == nil {
		t.Fatal("zero clients should fail")
	}
}

func TestKResolution(t *testing.T) {
	cases := []struct{ k, clients, want int }{
		{0, 4, 4},  // unset -> full participation
		{-3, 4, 4}, // negative -> full participation
		{9, 4, 4},  // oversized -> clamped to N
		{2, 4, 2},  // in range -> kept
		{1, 1, 1},  // singleton federation
	}
	for _, c := range cases {
		e := mustEngine(t, c.k, c.clients, 1, Payload{0})
		if e.K() != c.want {
			t.Fatalf("K=%d N=%d: resolved %d, want %d", c.k, c.clients, e.K(), c.want)
		}
	}
}

func TestDefaultK(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 1}, {3, 1}, {4, 2}, {8, 4}} {
		if got := DefaultK(c.n); got != c.want {
			t.Fatalf("DefaultK(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelectFullParticipationKeepsOrder(t *testing.T) {
	e := mustEngine(t, 4, 4, 7, Payload{0})
	cands := []int{3, 0, 2, 1}
	got := e.Select(cands)
	for i, v := range got {
		if v != cands[i] {
			t.Fatalf("full participation must keep candidate order: %v", got)
		}
	}
	// Fewer candidates than K clamps to the candidates, still in order.
	got = e.Select([]int{5, 4})
	if len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Fatalf("clamped selection %v", got)
	}
}

func TestSelectSeededAndDistinct(t *testing.T) {
	a := mustEngine(t, 2, 5, 11, Payload{0})
	b := mustEngine(t, 2, 5, 11, Payload{0})
	cands := []int{0, 1, 2, 3, 4}
	for round := 0; round < 8; round++ {
		sa, sb := a.Select(cands), b.Select(cands)
		if len(sa) != 2 || len(sb) != 2 {
			t.Fatalf("round %d: sizes %d/%d", round, len(sa), len(sb))
		}
		seen := map[int]bool{}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("round %d: same seed diverged: %v vs %v", round, sa, sb)
			}
			if sa[i] < 0 || sa[i] > 4 || seen[sa[i]] {
				t.Fatalf("round %d: bad selection %v", round, sa)
			}
			seen[sa[i]] = true
		}
	}
}

func TestCompleteRoundAggregatesAndDelivers(t *testing.T) {
	e := mustEngine(t, 2, 3, 1, Payload{0, 0})
	var gotPersonalized map[int]Payload
	var gotGlobal Payload
	report := e.CompleteRound(
		[]Contribution{{ID: 0, Upload: Payload{1, 3}}, {ID: 2, Upload: Payload{3, 5}}},
		RoundStats{Expected: 3, Selected: 2, Arrived: 2},
		func(personalized map[int]Payload, global Payload) (int, time.Duration) {
			gotPersonalized = personalized
			gotGlobal = global
			return 1, 0
		},
	)
	want := Payload{2, 4}
	for j := range want {
		if gotGlobal[j] != want[j] || e.Global()[j] != want[j] {
			t.Fatalf("global %v, want %v", gotGlobal, want)
		}
	}
	if len(gotPersonalized) != 2 || gotPersonalized[0] == nil || gotPersonalized[2] == nil {
		t.Fatalf("personalized keyed wrong: %v", gotPersonalized)
	}
	if report.Round != 0 || report.Participants != 2 || report.DownloadDrops != 1 {
		t.Fatalf("report %+v", report)
	}
	if e.Round() != 1 || len(e.Reports()) != 1 {
		t.Fatalf("round state %d / %d reports", e.Round(), len(e.Reports()))
	}
}

func TestCompleteRoundFiltersCorruptLengths(t *testing.T) {
	e := mustEngine(t, 2, 2, 1, Payload{0, 0})
	report := e.CompleteRound(
		[]Contribution{{ID: 0, Upload: Payload{1}}, {ID: 1, Upload: Payload{4, 6}}},
		RoundStats{Expected: 2, Selected: 2, Arrived: 2, UploadDrops: 1},
		nil,
	)
	// The corrupt upload joins the adapter-reported drop; only client 1
	// participates, so the "mean" is its upload.
	if report.UploadDrops != 2 || report.Participants != 1 {
		t.Fatalf("report %+v", report)
	}
	g := e.Global()
	if g[0] != 4 || g[1] != 6 {
		t.Fatalf("global %v", g)
	}
}

func TestCompleteRoundZeroParticipantsCarriesGlobal(t *testing.T) {
	e := mustEngine(t, 2, 2, 1, Payload{7, 8})
	report := e.CompleteRound(nil, RoundStats{Expected: 2, Selected: 2, TimedOut: true}, nil)
	if report.Participants != 0 || !report.TimedOut {
		t.Fatalf("report %+v", report)
	}
	g := e.Global()
	if g[0] != 7 || g[1] != 8 {
		t.Fatalf("global should carry over, got %v", g)
	}
	if e.Round() != 1 {
		t.Fatal("a degenerate round still advances the counter")
	}
}

func TestJoinPolicyReturnsCopies(t *testing.T) {
	e := mustEngine(t, 1, 1, 1, Payload{1, 2})
	round, global := e.Join()
	if round != 0 {
		t.Fatalf("round %d", round)
	}
	global[0] = 99
	if e.Global()[0] != 1 {
		t.Fatal("Join must hand out a copy")
	}
	e.CompleteRound([]Contribution{{ID: 0, Upload: Payload{5, 5}}},
		RoundStats{Expected: 1, Selected: 1, Arrived: 1}, nil)
	round, global = e.Join()
	if round != 1 || global[0] != 5 {
		t.Fatalf("late joiner saw round %d global %v", round, global)
	}
}

func TestAggregatePartialZeroUploads(t *testing.T) {
	prev := Payload{1, 2, 3}
	personalized, global := AggregatePartialInto(meanAgg{}, nil, prev, &PayloadArena{})
	if personalized != nil {
		t.Fatal("no personalized payloads expected")
	}
	if &global[0] != &prev[0] {
		t.Fatalf("global %v, want prev %v itself carried over", global, prev)
	}
}
