package riskclient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// subscriptionOver is a Subscription reading b as its event stream.
func subscriptionOver(b []byte) *Subscription {
	r := bytes.NewReader(b)
	return &Subscription{body: io.NopCloser(r), br: bufio.NewReader(r)}
}

// FuzzSubscriptionEvents drives the SSE reader behind Subscribe. Arbitrary
// bytes never panic Next, which ends in an error once the stream does. An
// event in riskd's framing, "event: <name>\ndata: <data>\n\n", reads back as
// written up to the whitespace the reader trims, and Next gives it riskd's
// meaning: a shutdown event is ErrServerDraining, a verdict event decodes
// as encoding/json decodes its data, and an unknown event is skipped.
func FuzzSubscriptionEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, data string, raw []byte) {
		sub := subscriptionOver(raw)
		for n := 0; ; n++ {
			if _, err := sub.Next(); err != nil {
				break
			}
			if n > len(raw) {
				t.Fatalf("more verdicts than the %d-byte stream can frame", len(raw))
			}
		}

		if strings.ContainsAny(name+data, "\r\n") {
			return // not one line each: outside the framing
		}
		wantName, wantData := strings.TrimSpace(name), strings.TrimSpace(data)
		if wantName == "" && wantData == "" {
			return // a blank event is no event
		}
		framed := []byte("event: " + name + "\ndata: " + data + "\n\n")
		gotName, gotData, err := subscriptionOver(framed).readEvent()
		if err != nil || gotName != wantName || gotData != wantData {
			t.Fatalf("readEvent(%q) = %q, %q, %v; want %q, %q", framed, gotName, gotData, err, wantName, wantData)
		}

		v, err := subscriptionOver(framed).Next()
		switch wantName {
		case "shutdown":
			if !errors.Is(err, ErrServerDraining) {
				t.Fatalf("shutdown event: Next = %v, want ErrServerDraining", err)
			}
		case "verdict":
			var want server.DeltaResponse
			if jerr := json.Unmarshal([]byte(wantData), &want); jerr != nil {
				if err == nil {
					t.Fatalf("verdict %q: Next accepted what encoding/json rejects (%v)", wantData, jerr)
				}
			} else if err != nil || !reflect.DeepEqual(*v, want) {
				t.Fatalf("verdict %q: Next = %+v, %v; want %+v", wantData, v, err, want)
			}
		default:
			if !errors.Is(err, io.EOF) {
				t.Fatalf("unknown event %q: Next = %v, want it skipped to io.EOF", wantName, err)
			}
		}
	})
}
