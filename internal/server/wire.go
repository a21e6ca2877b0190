package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
)

// decodeBody decodes a POST body the way every handler does: unknown
// fields rejected, and only the first JSON value read, so bytes after it
// are ignored. r is the body capped at maxBodyBytes, or what readBody
// read from it.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// readBody reads a body that declares a Content-Length within maxBodyBytes
// into memory, for the assess handler to hash before it decodes. The buffer
// starts at min(Content-Length, 1 MiB) + 1 bytes, the extra byte letting a
// reader that reports EOF on a later call finish without a second buffer,
// and grows only as bytes arrive, so a client's claim alone never
// allocates more. It returns the whole body, or nil for a chunked body, one
// declared over the limit and one whose read failed. src yields what the
// capped body stream would, a failed read's error included, so decodeBody
// answers every body as it did unbuffered.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, src io.Reader) {
	limited := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.ContentLength < 0 || r.ContentLength > maxBodyBytes {
		return nil, limited
	}
	buf := make([]byte, 0, min(r.ContentLength, 1<<20)+1)
	for {
		n, err := limited.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, bytes.NewReader(buf)
		}
		if err != nil {
			// http.MaxBytesReader repeats its error on every later read.
			return nil, io.MultiReader(bytes.NewReader(buf), limited)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// Ints is a JSON array of integers on riskd's wire: DatasetRef.Counts and
// DiffSpec's Items and Deltas. It is a []int (each assigns to the other)
// that decodes in one presized pass instead of through encoding/json's
// reflection, which cost most of a cache hit on a 16,470-count release. It
// accepts and rejects exactly what encoding/json does for a []int;
// FuzzAssessRequest and FuzzDeltaRequest pin that. There is no MarshalJSON:
// encoding/json writes an Ints as it writes a []int.
type Ints []int

var (
	intType   = reflect.TypeFor[int]()
	sliceType = reflect.TypeFor[[]int]()
)

// UnmarshalJSON decodes null or an array of integers and nulls the way
// encoding/json decodes a []int:
//   - null gives a nil slice, [] an empty one;
//   - a null element leaves the element as it was: 0, or the value at that
//     index of the slice already held, because a repeated key decodes into
//     the first key's slice;
//   - any other value, an element that is not an integer literal (1.0,
//     1e3, strings, bools, objects, arrays) and an integer beyond the int
//     range are a *json.UnmarshalTypeError, which encoding/json completes
//     with the field's path.
//
// encoding/json passes exactly one value whose syntax it has checked, so
// the number of commas is the number of elements less one in every array
// this accepts. Malformed input from any other caller is an error.
func (s *Ints) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*s = nil
		return nil
	}
	if len(data) == 0 || data[0] != '[' {
		return &json.UnmarshalTypeError{Value: jsonKind(data), Type: sliceType}
	}
	out, i := Ints{}, skipSpace(data, 1)
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		// Null elements keep what the slice already held, up to its
		// capacity, as encoding/json's in-place decode does.
		out = make(Ints, bytes.Count(data, []byte{','})+1)
		copy(out, (*s)[:cap(*s)])
		for k := 0; data[i-1] != ']'; k++ {
			switch i = skipSpace(data, i); {
			case i == len(data):
				return errMalformed(data)
			case data[i] == 'n':
				if !bytes.HasPrefix(data[i:], []byte("null")) {
					return errMalformed(data)
				}
				i += 4
			case data[i] == '-' || '0' <= data[i] && data[i] <= '9':
				start, neg := i, data[i] == '-'
				if neg {
					i++
				}
				first := i
				var u uint64
				for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
					u = u*10 + uint64(data[i]-'0')
				}
				// u cannot overflow in 19 digits, and 20 are at least 10^19 > 2^63.
				digits, limit := i-first, uint64(math.MaxInt)
				if neg {
					limit++
				}
				if digits == 0 || digits > 1 && data[first] == '0' || digits > 19 || u > limit ||
					i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
					return numberError(data, start, first, i)
				}
				if neg {
					u = -u
				}
				out[k] = int(u)
			default:
				return &json.UnmarshalTypeError{Value: jsonKind(data[i:]), Type: intType}
			}
			if i = skipSpace(data, i); i == len(data) || data[i] != ',' && data[i] != ']' {
				return errMalformed(data)
			}
			i++
		}
	}
	if skipSpace(data, i) != len(data) {
		return errMalformed(data)
	}
	*s = out
	return nil
}

// numberError is the error for the number at data[start:], whose digits
// start at first and stop at end: malformed when it has no digit or a
// leading zero, else the type error encoding/json gives for a fraction, an
// exponent or a value beyond the int range.
func numberError(data []byte, start, first, end int) error {
	if end == first || end-first > 1 && data[first] == '0' {
		return errMalformed(data)
	}
	for end < len(data) && isNumberByte(data[end]) {
		end++
	}
	return &json.UnmarshalTypeError{Value: "number " + string(data[start:end]), Type: intType}
}

// jsonKind names the JSON value that data starts with as encoding/json's
// type errors do.
func jsonKind(data []byte) string {
	if len(data) > 0 {
		switch data[0] {
		case '"':
			return "string"
		case 't', 'f':
			return "bool"
		case '{':
			return "object"
		case '[':
			return "array"
		}
	}
	return "number"
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

func errMalformed(data []byte) error {
	return fmt.Errorf("server: malformed integer array %.40q", data)
}
