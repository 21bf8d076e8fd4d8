package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file is how the store makes bytes durable; every write the store makes
// to its directory goes through it.
//
//   - fileSystem is the seam: every mutation of the directory — open for
//     write, write, fsync, truncate, close, rename, remove, mkdir, directory
//     fsync. Production code runs on osFS; the store's tests run on a fake
//     that numbers every call and can fail any one of them. Reads stay on
//     package os.
//   - appendLog is a JSON-lines file written only at its end: wal.jsonl and
//     every checkpoints/<sid>.jsonl.
//   - install replaces a whole file atomically: segments, MANIFEST and the
//     checkpoint rewrite.

// fileSystem is every way the store changes its directory.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the creations and renames in it
	// durable.
	SyncDir(dir string) error
}

// file is an open file the store writes through.
type file interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil file
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanLog feeds each complete (newline-terminated) line of a JSON-lines log
// to accept until one is refused, and returns the byte offset past the last
// accepted line. Everything beyond it is a torn tail: a final line missing its
// newline, or one a crash cut short or damaged before the newline landed.
func scanLog(data []byte, accept func(line []byte) bool) (good int) {
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 || !accept(data[good:good+nl]) {
			break
		}
		good += nl + 1
	}
	return good
}

// lineBufs recycles the buffers WAL and checkpoint lines are encoded in
// (*[]byte). A line is dropped once it is durable; without the pool each
// append would hand its bytes, and the doublings that grew them, to the
// collector.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendLog is an open JSON-lines log. The file holds size bytes, every one
// fsynced, and — unless torn — nothing after them, so the next line always
// starts where the last acknowledged one ended.
type appendLog struct {
	f    file
	size int64
	torn bool // bytes past size may remain: cut them before the next append
}

// openLog opens the log at path for appending. The file is size bytes long
// and its intact prefix (scanLog) is good bytes; the torn tail past it is cut
// away.
func openLog(fs fileSystem, path string, good, size int) (*appendLog, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &appendLog{f: f, size: int64(good), torn: good < size}
	if err := l.cut(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return l, nil
}

// cut truncates the file back to the acknowledged length if it may be torn.
func (l *appendLog) cut() error {
	if l.torn {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
		l.torn = false
	}
	return nil
}

// append makes buf — whole lines — durable at the end of the log: one write,
// one fsync. If either fails the file is cut back to its last acknowledged
// length, so the failed bytes can never sit in front of a later acknowledged
// line (replay stops at the first torn one). A cut that fails too is retried
// before the next append, which is refused until it succeeds.
func (l *appendLog) append(buf []byte) error {
	if err := l.cut(); err != nil {
		return err
	}
	_, err := l.f.Write(buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.torn = true
		_ = l.cut()
		return err
	}
	l.size += int64(len(buf))
	return nil
}

// reset empties the log.
func (l *appendLog) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size, l.torn = 0, false
	return nil
}

// install atomically replaces path with the bytes write produces: path.tmp is
// written, fsynced, closed and renamed over path, then the directory is
// fsynced. The rename is the commit point — a crash before it leaves the old
// file, after it the new one — and nothing after it fails the install: the
// directory fsync is best-effort, as not every platform supports it.
func install(fs fileSystem, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	_ = fs.SyncDir(filepath.Dir(path))
	return nil
}

// installBytes installs data at path.
func installBytes(fs fileSystem, path string, data []byte) error {
	return install(fs, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
