package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// plainType returns t with every Ints replaced by []int, through struct
// fields and pointers: the type encoding/json would decode if Ints had no
// UnmarshalJSON. Request types hold only plain fields, Ints and structs of
// those, so rebuilding their structs loses no method; an embedded struct
// stays embedded, so its fields keep their promoted JSON names.
func plainType(t reflect.Type) reflect.Type {
	switch t.Kind() {
	case reflect.Slice:
		if t == reflect.TypeFor[Ints]() {
			return sliceType
		}
	case reflect.Pointer:
		return reflect.PointerTo(plainType(t.Elem()))
	case reflect.Struct:
		fields := make([]reflect.StructField, t.NumField())
		for i := range fields {
			f := t.Field(i)
			fields[i] = reflect.StructField{Name: f.Name, Type: plainType(f.Type), Tag: f.Tag, Anonymous: f.Anonymous}
		}
		return reflect.StructOf(fields)
	}
	return t
}

// fromPlain converts v, a value of plainType(t), to t. Slices keep their
// nil-ness.
func fromPlain(v reflect.Value, t reflect.Type) reflect.Value {
	switch t.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.Zero(t)
		}
		p := reflect.New(t.Elem())
		p.Elem().Set(fromPlain(v.Elem(), t.Elem()))
		return p
	case reflect.Struct:
		out := reflect.New(t).Elem()
		for i := 0; i < t.NumField(); i++ {
			out.Field(i).Set(fromPlain(v.Field(i), t.Field(i).Type))
		}
		return out
	}
	return v.Convert(t)
}

// decodeLikeHandler decodes body with the handlers' decodeBody.
func decodeLikeHandler(w http.ResponseWriter, body []byte, v any) error {
	return decodeBody(http.MaxBytesReader(w, io.NopCloser(bytes.NewReader(body)), maxBodyBytes), v)
}

// decodeBoth decodes body like the handlers do, into a T and into
// plainType(T), and fails t unless both reject or both accept with equal
// values, where a nil slice and an empty one differ. It returns the two
// decoded values when both accept.
func decodeBoth[T any](t *testing.T, body []byte) (got, plain *T) {
	t.Helper()
	w := httptest.NewRecorder()
	got = new(T)
	errGot := decodeLikeHandler(w, body, got)
	rt := reflect.TypeFor[T]()
	pv := reflect.New(plainType(rt))
	errPlain := decodeLikeHandler(w, body, pv.Interface())
	if (errGot == nil) != (errPlain == nil) {
		t.Fatalf("body %q:\n  Ints decode: %v\n[]int decode: %v", body, errGot, errPlain)
	}
	if errGot != nil {
		return nil, nil
	}
	plain = fromPlain(pv.Elem(), rt).Addr().Interface().(*T)
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("body %q:\n  Ints decode: %+v\n[]int decode: %+v", body, got, plain)
	}
	return got, plain
}

// FuzzAssessRequest is a differential fuzzer for the /v1/assess body: the
// Ints decoder must accept exactly the bodies encoding/json accepts for the
// same request with plain []int arrays, with equal values, and an accepted
// pair must parse to the same status and cache key.
func FuzzAssessRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		got, plain := decodeBoth[AssessRequest](t, body)
		if got == nil {
			return
		}
		jobGot, statusGot, errGot := s.parseJob(got)
		jobPlain, statusPlain, errPlain := s.parseJob(plain)
		if statusGot != statusPlain || (errGot == nil) != (errPlain == nil) {
			t.Fatalf("body %q: parseJob status %d (%v), plain %d (%v)", body, statusGot, errGot, statusPlain, errPlain)
		}
		if errGot == nil && jobGot.Key != jobPlain.Key {
			t.Fatalf("body %q: key %s, plain %s", body, jobGot.Key, jobPlain.Key)
		}
	})
}

// FuzzDeltaRequest is FuzzAssessRequest's twin for the /v1/assess/delta
// body and its diff arrays.
func FuzzDeltaRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeBoth[DeltaRequest](t, body)
	})
}

// TestIntsUnmarshalDirect covers what encoding/json never passes to
// UnmarshalJSON: malformed arrays from a direct call are errors, not
// panics or values.
func TestIntsUnmarshalDirect(t *testing.T) {
	for _, in := range []string{"", "[", "[1", "[1,", "[1,]", "[,1]", "[1 2]", "[01]", "[-]", "[nul]", "[1]x", "[null", "[-1,nullx]"} {
		var s Ints
		if err := s.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q: accepted as %v", in, s)
		}
	}
	var s Ints
	if err := s.UnmarshalJSON([]byte("[ 1 ,\n-2\t]\r\n")); err != nil || !reflect.DeepEqual(s, Ints{1, -2}) {
		t.Errorf("spaced array: %v, %v", s, err)
	}
}

// retailBody is the recipe-mode assess body carrying the RETAIL profile's
// 16,470 counts (datagen seed 1), the body riskdbench's retail_hot workload
// repeats.
func retailBody(tb testing.TB) []byte {
	tb.Helper()
	ft, err := datagen.RETAIL.Counts(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(AssessRequest{Dataset: DatasetRef{Transactions: ft.NTransactions, Counts: ft.Counts}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeAssessRETAIL times the handlers' decode of one assess body
// carrying the RETAIL profile's 16,470 counts (datagen seed 1). riskd pays
// it on the first two sights of a body, before the body has an alias, and
// on every body that does not repeat; BenchmarkAssessHitRETAIL times the
// aliased repeat. ci.sh -bench records it under "microbenchmarks" in
// BENCH_parallel.json.
func BenchmarkDecodeAssessRETAIL(b *testing.B) {
	body := retailBody(b)
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req AssessRequest
		if err := decodeLikeHandler(w, body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
