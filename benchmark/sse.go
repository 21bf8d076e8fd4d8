package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

// frame is one server-sent event as autotuned writes it:
// "id: <seq>\nevent: <kind>\ndata: <json>\n\n".
type frame struct {
	Kind string
	Data []byte // owned by the reader; valid until the next call to next
}

// frameReader parses an SSE body frame by frame, reusing its buffers so a
// hundred thousand frames a run cost the load generator no garbage.
type frameReader struct {
	br   *bufio.Reader
	line []byte
	data []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next line without its terminator. A session_done
// frame carries the whole trial history and outgrows the bufio buffer, so
// partial reads are stitched together.
func (fr *frameReader) readLine() ([]byte, error) {
	fr.line = fr.line[:0]
	for {
		part, err := fr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			fr.line = append(fr.line, part...)
			continue
		}
		if err != nil {
			if err == io.EOF && (len(part) > 0 || len(fr.line) > 0) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(fr.line) > 0 {
			part = append(fr.line, part...)
			fr.line = part
		}
		return bytes.TrimRight(part, "\r\n"), nil
	}
}

// next returns the next frame, or io.EOF once the stream ends cleanly
// between frames. A stream cut inside a frame is io.ErrUnexpectedEOF.
func (fr *frameReader) next() (frame, error) {
	var f frame
	seen := false
	for {
		line, err := fr.readLine()
		if err != nil {
			if err == io.EOF && seen {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
		if len(line) == 0 {
			if !seen {
				continue // blank separator before the first field
			}
			return f, nil
		}
		seen = true
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			f.Kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			fr.data = append(fr.data[:0], line[len("data: "):]...)
			f.Data = fr.data
		case bytes.HasPrefix(line, []byte("id: ")):
		default:
			return frame{}, fmt.Errorf("sse: unexpected line %q", line)
		}
	}
}

// streamDigest folds a session's ordered (kind, data) frames into one
// SHA-256. Each field is length-prefixed, so no two frame sequences share
// an encoding.
type streamDigest struct {
	h hash.Hash
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) add(kind string, data []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(kind)))
	d.h.Write(n[:])
	io.WriteString(d.h, kind)
	binary.BigEndian.PutUint64(n[:], uint64(len(data)))
	d.h.Write(n[:])
	d.h.Write(data)
}

func (d *streamDigest) sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	d.h.Sum(out[:0])
	return out
}
