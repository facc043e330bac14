package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// newPaperServer serves a random-weight model at the paper's dimensions
// (writePaperModel) with ctjam-serve's defaults.
func newPaperServer(tb testing.TB) (*Server, *Model) {
	tb.Helper()
	srv, err := New(Config{
		Models:   []ModelSpec{{Name: "default", Path: writePaperModel(tb, tb.TempDir())}},
		Batching: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, srv.Registry().Default()
}

// paperBody is a 64-state /v1/decide body, as perfbench's gateway clients
// post, and the states it carries.
func paperBody(tb testing.TB) ([]byte, [][]float64) {
	tb.Helper()
	states := randStates(rand.New(rand.NewSource(5)), 64, 24)
	body, err := json.Marshal(DecideRequest{States: states})
	if err != nil {
		tb.Fatal(err)
	}
	return body, states
}

// TestDecideDirectAllocs holds the direct path's core — scan the body, run
// DecideBatch, encode the answer — at zero allocations for a 64-state body
// at paper dimensions. net/http's own allocations (request, header, body
// reader) are outside it.
func TestDecideDirectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and sync.Pool drops items at random under -race")
	}
	srv, m := newPaperServer(t)
	body, states := paperBody(t)
	want := make([]int, len(states))
	if err := m.policy().DecideBatch(flatten(states), want); err != nil {
		t.Fatal(err)
	}
	var wantOut bytes.Buffer
	if err := json.NewEncoder(&wantOut).Encode(DecideResponse{Actions: want}); err != nil {
		t.Fatal(err)
	}

	sc := new(reqScratch)
	serve := func() {
		sc.body.Reset()
		sc.body.Write(body)
		if _, err := srv.decideBody(m, sc); err != nil {
			t.Fatal(err)
		}
		sc.out = appendActions(sc.out[:0], &sc.resp)
	}
	serve() // size the scratch buffers
	if !bytes.Equal(sc.out, wantOut.Bytes()) {
		t.Fatalf("answer %s, want %s", sc.out, wantOut.Bytes())
	}
	if got := testing.AllocsPerRun(100, serve); got != 0 {
		t.Fatalf("%v allocations per 64-state request, want 0", got)
	}
}

// TestDecideResponseBytes pins the hand encoder to json.Encoder's bytes for
// every greedy answer shape.
func TestDecideResponseBytes(t *testing.T) {
	const largest = 159 // the paper network's last action index
	zero, last := 0, largest
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = i * largest / 63
	}
	for _, resp := range []DecideResponse{
		{Action: &zero},
		{Action: &last},
		{Actions: []int{0}},
		{Actions: []int{largest}},
		{Actions: batch},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if got := appendActions([]byte("prefix"), &resp); string(got) != "prefix"+want.String() {
			t.Fatalf("appendActions wrote %q, json.Encoder %q", got, want.String())
		}
	}
}

// FuzzDecideBody holds scanDecide to encoding/json on arbitrary bodies. A
// body the scanner accepts must decode through json.Decoder into a request
// the server would serve (exactly one of state and states, every state dim
// long) with the same qvalues flag and the same float bits. A body
// encoding/json turns into such a request must, once re-encoded by
// json.Marshal (and by json.MarshalIndent), be accepted by the scanner with
// the same values, so canonical bodies never take the slow path.
func FuzzDecideBody(f *testing.F) {
	f.Add([]byte(`{"state":[0.5,-1,0.25]}`), uint8(3))
	f.Add([]byte(`{"states":[[0.5,-1,0.25],[1e-7,0,-0.125]],"qvalues":true}`), uint8(3))
	f.Add([]byte(`{"State":[1,2,3]}`), uint8(3))
	f.Add([]byte(`{"state":[1e400,2,3]}`), uint8(3))
	f.Add([]byte(`{"state":[1,2,3]} trailing`), uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, d uint8) {
		dim := max(int(d), 1) // every model has at least one feature
		var ref DecideRequest
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
		servable := refErr == nil && servableRequest(&ref, dim)

		flat, rows, single, qvalues, ok := scanDecide(body, dim, nil)
		if ok {
			if !servable {
				t.Fatalf("scanned %q as %d states, but encoding/json gives %+v, %v", body, rows, ref, refErr)
			}
			sameRequest(t, body, &ref, flat, rows, single, qvalues)
		}
		if !servable {
			return
		}
		canon, err := json.Marshal(&ref)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(&ref, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{canon, indented} {
			flat, rows, single, qvalues, ok := scanDecide(b, dim, nil)
			if !ok {
				t.Fatalf("canonical body %q (from %q) left to encoding/json", b, body)
			}
			sameRequest(t, b, &ref, flat, rows, single, qvalues)
		}
	})
}

// servableRequest reports whether decide would serve req on a model with
// dim features rather than answer 400.
func servableRequest(req *DecideRequest, dim int) bool {
	if (len(req.State) > 0) == (len(req.States) > 0) {
		return false
	}
	if len(req.State) > 0 {
		return len(req.State) == dim
	}
	for _, st := range req.States {
		if len(st) != dim {
			return false
		}
	}
	return true
}

// sameRequest fails unless scanDecide's result equals the flattened ref
// bit for bit.
func sameRequest(t *testing.T, body []byte, ref *DecideRequest, flat []float64, rows int, single, qvalues bool) {
	t.Helper()
	states := ref.States
	if len(ref.State) > 0 {
		states = [][]float64{ref.State}
	}
	want := flatten(states)
	if single != (len(ref.State) > 0) || rows != len(states) || qvalues != ref.QValues || len(flat) != len(want) {
		t.Fatalf("body %q: scanned single=%v rows=%d qvalues=%v (%d values), encoding/json gives %+v",
			body, single, rows, qvalues, len(flat), ref)
	}
	for i := range want {
		if math.Float64bits(flat[i]) != math.Float64bits(want[i]) {
			t.Fatalf("body %q: value %d scanned as %v (%#x), encoding/json gives %v (%#x)",
				body, i, flat[i], math.Float64bits(flat[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestExactNumberMatchesParseFloat holds scanDecide's own conversion to
// strconv.ParseFloat's bits on edge tokens and on many generated ones: the
// shortest forms of random float64s and of small fractions, and random
// digit strings with a decimal point or an exponent.
func TestExactNumberMatchesParseFloat(t *testing.T) {
	check := func(tok string) {
		t.Helper()
		want, err := strconv.ParseFloat(tok, 64)
		got, ok := (&scanner{b: []byte(tok + "]")}).number()
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q scanned as %v (ok %v), strconv.ParseFloat gives %v (%v)", tok, got, ok, want, err)
		}
	}
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.000", "0e0", "-0e5", "1", "-1", "0.5", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "900719925474099.3",
		"0.3333333333333333", "0.6666666666666666", "0.1", "0.2", "0.30000000000000004",
		"4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e400", "-1e400", "1e-400",
		"1E+2", "1e+022", "0.000000000000000000000000000001e30", "123456789012345678901234567890",
	} {
		check(tok)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200000; k++ {
		var tok string
		switch k % 4 {
		case 0:
			tok = strconv.FormatFloat(rng.Float64()*2-1, 'g', -1, 64)
		case 1:
			tok = strconv.FormatFloat(float64(rng.Intn(100))/float64(1+rng.Intn(60)), 'f', -1, 64)
		case 2:
			tok = strconv.FormatInt(rng.Int63n(1<<60)>>rng.Intn(60), 10) + "e" + strconv.Itoa(rng.Intn(70)-35)
		case 3:
			d := strconv.FormatInt(rng.Int63n(1<<55), 10)
			p := rng.Intn(len(d))
			tok = "-" + d[:p] + "." + d[p:]
			if p == 0 {
				tok = "-0." + d
			}
		}
		check(tok)
	}
}
