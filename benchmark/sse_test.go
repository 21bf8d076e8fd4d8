package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func readAll(t *testing.T, body string) ([]frame, error) {
	t.Helper()
	fr := newFrameReader(strings.NewReader(body))
	var out []frame
	for {
		f, err := fr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, frame{Kind: f.Kind, Data: append([]byte(nil), f.Data...)})
	}
}

func TestFrameReader(t *testing.T) {
	frames, err := readAll(t, "id: 1\nevent: trial_started\ndata: {\"a\":1}\n\nid: 2\nevent: session_done\ndata: {}\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || frames[0].Kind != "trial_started" || string(frames[0].Data) != `{"a":1}` ||
		frames[1].Kind != "session_done" || string(frames[1].Data) != "{}" {
		t.Fatalf("frames = %+v", frames)
	}
	if frames, err = readAll(t, ""); err != nil || len(frames) != 0 {
		t.Fatalf("empty body: %v, %v", frames, err)
	}
}

// A session_done frame carries the whole trial history and is far larger
// than the reader's buffer.
func TestFrameReaderLongLine(t *testing.T) {
	big := strings.Repeat("x", 300<<10)
	frames, err := readAll(t, "id: 1\nevent: session_done\ndata: "+big+"\n\nid: 2\nevent: tail\ndata: y\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || string(frames[0].Data) != big || string(frames[1].Data) != "y" {
		t.Fatalf("long frame mangled: %d frames, first data %d bytes", len(frames), len(frames[0].Data))
	}
}

func TestFrameReaderRejectsCutAndForeignStreams(t *testing.T) {
	for name, body := range map[string]string{
		"cut after a field":       "id: 1\nevent: trial_done\n",
		"cut inside a line":       "id: 1\nevent: trial_done\ndata: {\"a\":",
		"cut before the blank":    "id: 1\nevent: trial_done\ndata: {}\n",
		"complete then cut frame": "id: 1\nevent: a\ndata: {}\n\nid: 2\n",
	} {
		if _, err := readAll(t, body); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
	if _, err := readAll(t, "<html>502 Bad Gateway</html>\n\n"); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("foreign body: err = %v, want a parse error", err)
	}
}

func TestStreamDigest(t *testing.T) {
	sum := func(frames ...[2]string) [32]byte {
		d := newStreamDigest()
		for _, f := range frames {
			d.add(f[0], []byte(f[1]))
		}
		return d.sum()
	}
	base := sum([2]string{"a", "1"}, [2]string{"b", "2"})
	if base != sum([2]string{"a", "1"}, [2]string{"b", "2"}) {
		t.Error("digest is not a pure function of the frames")
	}
	if base == sum([2]string{"b", "2"}, [2]string{"a", "1"}) {
		t.Error("digest ignores frame order")
	}
	// Length prefixes keep field and frame boundaries in the hash.
	if sum([2]string{"ab", "c"}) == sum([2]string{"a", "bc"}) {
		t.Error("digest ignores the kind/data boundary")
	}
	if sum([2]string{"a", "1"}, [2]string{"a", "1"}) == sum([2]string{"a", "1"}) {
		t.Error("digest ignores a repeated frame")
	}
}
