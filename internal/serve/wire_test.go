package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spgcnn/internal/netdef"
	"spgcnn/internal/rng"
)

// inferRequest and inferResponse are the /v1/infer wire format as
// encoding/json sees it: the oracle decodeInput and appendResponse are
// pinned to.
type inferRequest struct {
	Input []float32 `json:"input"`
}

type inferResponse struct {
	Output    []float32 `json:"output"`
	Argmax    int       `json:"argmax"`
	Batch     int       `json:"batch"`
	Bucket    int       `json:"bucket"`
	QueueMs   float64   `json:"queue_ms"`
	ComputeMs float64   `json:"compute_ms"`
}

// randFloat32s draws n finite float32s from uniformly random bit
// patterns, so every exponent (subnormals included) turns up.
func randFloat32s(r *rng.RNG, n int) []float32 {
	out := make([]float32, 0, n)
	for len(out) < n {
		v := math.Float32frombits(uint32(r.Uint64()))
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			out = append(out, v)
		}
	}
	return out
}

// edgeFloat32s are the values around encoding/json's 'e'/'f' switch and
// float32's limits.
var edgeFloat32s = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1.1754942e-38,
	1e-7, -1e-7, 9.999999e-7, 1e-6, 1.0000001e-6,
	0.1, 1, -2.5, 123456.79,
	9.9e20, 9.999999e20, 1e21, -1e21,
	3.4e38, -3.4e38, math.MaxFloat32, -math.MaxFloat32,
}

// gBody is a body in the benchmark load generator's format: each value as
// the shortest 'g' decimal that round-trips it.
func gBody(values []float32) []byte {
	b := []byte(`{"input":[`)
	for i, v := range values {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// TestAppendResponseMatchesEncoder pins the appended response to the bytes
// json.NewEncoder(w).Encode writes for the same inferResponse.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	r := rng.New(17)
	outputs := [][]float32{edgeFloat32s, {}, {1}}
	for i := 0; i < 50; i++ {
		outputs = append(outputs, randFloat32s(r, 10))
	}
	durations := []time.Duration{0, 1, 999, time.Microsecond, 1234567, time.Second, time.Hour, math.MaxInt64}
	var buf bytes.Buffer
	for i, out := range outputs {
		res := result{
			output:    out,
			argmax:    i % 7,
			batch:     1 + i%8,
			bucket:    8,
			queueWait: durations[i%len(durations)],
			compute:   durations[(i+3)%len(durations)],
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(inferResponse{
			Output:    res.output,
			Argmax:    res.argmax,
			Batch:     res.batch,
			Bucket:    res.bucket,
			QueueMs:   float64(res.queueWait) / float64(time.Millisecond),
			ComputeMs: float64(res.compute) / float64(time.Millisecond),
		}); err != nil {
			t.Fatal(err)
		}
		got, err := appendResponse(nil, &res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("response %d:\n got %s\nwant %s", i, got, buf.Bytes())
		}
	}
}

// TestAppendFloat64MatchesEncoder covers the ms fields' 64-bit rule on
// both sides of the 'e'/'f' boundaries, which whole-nanosecond durations
// alone never reach below 1e-6 ms.
func TestAppendFloat64MatchesEncoder(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 9.99999999e-7, 1e-6, 1.000001e-6,
		0.5, 1e20, 9.9e20, 9.999999999999999e20, 1e21, 1.5e300, math.MaxFloat64,
	} {
		for _, f := range []float64{v, -v} {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, f, 64); !bytes.Equal(got, want) {
				t.Errorf("%v: got %s, want %s", f, got, want)
			}
		}
	}
}

// TestAppendResponseRejectsNonFinite: JSON has no NaN or Inf.
func TestAppendResponseRejectsNonFinite(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := appendResponse(nil, &result{output: []float32{1, v}}); err == nil {
			t.Errorf("logit %v encoded without an error", v)
		}
	}
}

// TestDecodeInputMatchesUnmarshal: every body the strict decoder accepts
// decodes to json.Unmarshal's values, bit for bit.
func TestDecodeInputMatchesUnmarshal(t *testing.T) {
	r := rng.New(23)
	vals := append(randFloat32s(r, 200), edgeFloat32s...)
	marshaled, _ := json.Marshal(inferRequest{Input: vals})
	spaced := strings.NewReplacer("{", " \t{\n", ":", " : ", ",", "\r\n,  ", "[", "[ ", "]", "\t]").
		Replace(string(marshaled)) + "\n"
	for _, body := range [][]byte{
		marshaled, gBody(vals), []byte(spaced),
		[]byte(`{"input":[-0,0,1E+2,1e-2,0.5e1,-1.25E-3]}`),
	} {
		var want inferRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("json.Unmarshal: %v", err)
		}
		got := make([]float32, len(want.Input))
		if err := decodeInput(body, got); err != nil {
			t.Fatalf("decodeInput(%.60q...): %v", body, err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want.Input[i]) {
				t.Fatalf("value %d: decoded %v, json.Unmarshal %v", i, got[i], want.Input[i])
			}
		}
	}
}

// numberEdges are the plain decimals and exponent forms nearest the fast
// path's limits: exact float32 midpoints, float32's range ends, signed
// zeros, mantissas past 15 and 19 significant digits, and fractions
// around 22 digits.
var numberEdges = []string{
	"16777217", "16777219", "-16777217", "16777216.5", "33554435",
	"3.4028235e38", "3.4028236e38", "-3.4028235e+38", "1.1754944e-38", "1.1754942e-38",
	"1e-45", "1e-46", "7e-46", "0.000000000000000000000000000000000000000000001",
	"-0", "0", "0.000", "-0.0", "0.1", "1", "1E+2", "1e-2", "0.5e1", "-1.25E-3",
	"999999999999999", "9999999999999999", "99999999999999999999",
	"1234567890123456789", "12345678901234567890123", "-9999999999999999999.5",
	"0.12345678901234567890123", "1.0000000000000000000001", "0.30000001192092896",
	"0.0000000000000000000001", "0.00000000000000000000001", "123456789012345.6",
	"0.0000000000000000000012345", "4.999999999999999", "100000000000000000000000",
}

// scanNumber runs the body scanner's number on s alone and requires it to
// consume every byte of an accepted number.
func scanNumber(t *testing.T, s string) (float32, error) {
	p := scanner{b: []byte(s)}
	v, err := p.number()
	if err == nil && p.i != len(s) {
		t.Fatalf("number(%q) consumed %d of %d bytes", s, p.i, len(s))
	}
	return v, err
}

// TestNumberMatchesStrconv: the scanner's number agrees with
// strconv.ParseFloat(s, 32) bit for bit, and in rejecting what is out of
// range, on the edges above and on generated numbers: shortest float32
// forms, fixed-precision decimals, exponent forms, decimals printed next
// to float32 midpoints and random digit strings.
func TestNumberMatchesStrconv(t *testing.T) {
	check := func(s string) {
		got, err := scanNumber(t, s)
		want, wantErr := strconv.ParseFloat(s, 32)
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("number(%q): error %v, strconv: %v", s, err, wantErr)
		case err == nil && math.Float32bits(got) != math.Float32bits(float32(want)):
			t.Fatalf("number(%q) = %v (%#08x), strconv %v (%#08x)",
				s, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
		}
	}
	for _, s := range numberEdges {
		check(s)
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	r := rng.New(29)
	var b []byte
	for i := 0; i < n; i++ {
		b = b[:0]
		switch i % 6 {
		case 0: // shortest form of a random finite float32
			b = strconv.AppendFloat(b, float64(randFloat32s(r, 1)[0]), 'g', -1, 32)
		case 1: // shortest form of a served input
			b = strconv.AppendFloat(b, float64(float32(r.NormFloat64())), 'g', -1, 32)
		case 2: // a fixed-precision decimal
			v := r.NormFloat64() * math.Pow(10, float64(r.Intn(16)-8))
			b = strconv.AppendFloat(b, v, 'f', r.Intn(20), 64)
		case 3: // an exponent form
			b = strconv.AppendFloat(b, r.NormFloat64()*math.Pow(10, float64(r.Intn(80)-40)), 'e', r.Intn(12), 64)
		case 4: // a decimal at or next to a float32 midpoint
			c := float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(16)-8)))
			mid := (float64(c) + float64(math.Nextafter32(c, float32(math.Inf(1))))) / 2
			b = strconv.AppendFloat(b, mid, 'f', r.Intn(25), 64)
		default: // random digits around the 15-digit and 22-place limits
			if r.Intn(2) == 0 {
				b = append(b, '-')
			}
			if whole := r.Intn(18); whole == 0 {
				b = append(b, '0')
			} else {
				b = append(b, byte('1'+r.Intn(9)))
				for k := 1; k < whole; k++ {
					b = append(b, byte('0'+r.Intn(10)))
				}
			}
			if places := r.Intn(26); places > 0 {
				b = append(b, '.')
				for k := 0; k < places; k++ {
					b = append(b, byte('0'+r.Intn(10)))
				}
			}
		}
		check(string(b))
	}
}

// BenchmarkDecodeInput decodes one CIFAR-sized body (3 888 values) in
// the served inputs' format: normal draws, shortest float32 forms.
func BenchmarkDecodeInput(b *testing.B) {
	r := rng.New(31)
	vals := make([]float32, 3*36*36)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	body := gBody(vals)
	dst := make([]float32, len(vals))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeInput(body, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInferBodyRejects: bodies outside the wire format answer 400, among
// them the four kinds encoding/json's Decoder takes: an unknown member, a
// case-variant key, a duplicate "input" and bytes after the object.
func TestInferBodyRejects(t *testing.T) {
	srv, ts := testServer(t, time.Millisecond, 4, 16, nil)
	n := srv.model.InLen()
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	good := string(gBody(ones))
	arr := good[len(`{"input":`) : len(good)-1] // [1,1,...,1]
	// with replaces the first value of the good body.
	with := func(v string) string { return `{"input":[` + v + good[len(`{"input":[1`):] }
	// encoding/json's Decoder takes these; the wire format does not.
	tightened := map[string]string{
		"unknown member":   `{"input":` + arr + `,"extra":1}`,
		"case-variant key": `{"INPUT":` + arr + `}`,
		"duplicate member": `{"input":` + arr + `,"input":` + arr + `}`,
		"trailing bytes":   good + `x`,
		"trailing object":  good + `{}`,
	}
	for name, body := range tightened {
		var req inferRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil || len(req.Input) != n {
			t.Errorf("%s: json.Decoder does not take it either (%v, %d values)", name, err, len(req.Input))
		}
	}
	rejects := map[string]string{
		"empty body":      ``,
		"null":            `null`,
		"no input":        `{}`,
		"null input":      `{"input":null}`,
		"too short":       `{"input":` + arr[:len(arr)-3] + `]}`,
		"too long":        `{"input":[1,` + arr[1:] + `}`,
		"empty array":     `{"input":[]}`,
		"out of range":    with(`1e39`),
		"negative range":  with(`-1e39`),
		"plus sign":       with(`+1`),
		"leading zero":    with(`01`),
		"bare fraction":   with(`.5`),
		"bare point":      with(`1.`),
		"NaN":             with(`NaN`),
		"Infinity":        with(`Infinity`),
		"lone minus":      with(`-`),
		"empty exponent":  with(`1e`),
		"signed exponent": with(`1e+`),
		"string value":    with(`"1"`),
		"truncated":       good[:len(good)-1],
		"trailing comma":  `{"input":` + arr[:len(arr)-1] + `,]}`,
		"escaped key":     `{"\u0069nput":` + arr + `}`,
	}
	for name, body := range tightened {
		rejects[name] = body
	}
	for name, body := range rejects {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if _, code := postInfer(t, ts.URL, ones); code != http.StatusOK {
		t.Fatalf("well-formed request after the rejects got %d", code)
	}
	if st := srv.Stats(); st.Requests != 1 {
		t.Fatalf("%d requests admitted, want 1", st.Requests)
	}
}

// fuzzNet is a four-input model, so fuzzed bodies reach the accepting
// path often.
const fuzzNet = `
name: "fuzztiny"
input { channels: 1 height: 2 width: 2 }
layer { name: "fc0" type: "fc" outputs: 3 }
`

// FuzzInferBody: the decoder never panics or hangs; a body it accepts is
// one json.Unmarshal accepts with the same values bit for bit; a body it
// rejects answers 400 (413 past the body limit). The seed corpus is in
// testdata/fuzz/FuzzInferBody.
func FuzzInferBody(f *testing.F) {
	def, err := netdef.Parse(fuzzNet)
	if err != nil {
		f.Fatal(err)
	}
	model, err := NewModel(def, ModelConfig{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Model: model})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	limit := maxInferBody(model.InLen())

	f.Fuzz(func(t *testing.T, body []byte) {
		got := make([]float32, model.InLen())
		decodeErr := decodeInput(body, got)
		if decodeErr == nil {
			var want inferRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("decoder accepted what json.Unmarshal rejects (%v)", err)
			}
			if len(want.Input) != len(got) {
				t.Fatalf("decoder accepted %d values, json.Unmarshal found %d", len(got), len(want.Input))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Input[i]) {
					t.Fatalf("value %d: decoded %v, json.Unmarshal %v", i, got[i], want.Input[i])
				}
			}
		}

		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		switch {
		case int64(len(body)) > limit:
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body over the %d limit: status %d, want 413", len(body), limit, w.Code)
			}
		case decodeErr != nil:
			if w.Code != http.StatusBadRequest {
				t.Fatalf("rejected body (%v): status %d, want 400", decodeErr, w.Code)
			}
		case w.Code != http.StatusOK && w.Code != http.StatusInternalServerError:
			// 500 is a finite input driving a logit past float32's range.
			t.Fatalf("accepted body: status %d", w.Code)
		}
	})
}
