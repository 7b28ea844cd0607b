// Package durable is the one durable-storage primitive: every file the
// program promises to keep — campaign journal, service journal, run
// archive, provenance ledger — is published, appended or recovered
// here.
//
// A file survives power loss once its bytes and the directory entry
// naming it are both fsynced. WriteFile does both before it returns.
// Create publishes a log's initial content the same way but leaves the
// directory sync to the first Append: until then the log holds nothing
// a caller was promised, so creating one costs a single file fsync.
// Append fsyncs each record before it returns. Scan reads records back
// under one torn-tail policy; Frame and ParseFrame give each line a
// CRC so damage cannot pass for a record.
package durable

import (
	"os"
	"path/filepath"
	"sync"
)

// WriteFile replaces path with data atomically and durably: after a
// crash at any point path holds either its old content or data.
func WriteFile(path string, data []byte) error {
	if err := publish(path, data); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// publish writes data to a sibling temp file, fsyncs it and renames it
// over path. The new directory entry is not yet synced.
func publish(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SyncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Log is an append-only file of records. Appends are mutex-serialized
// and each is fsynced before it returns.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	dir string // directory to sync on the first Append; "" once synced
	n   int
}

// Create publishes data as the log's initial content, replacing any
// file at path (temp file, fsync, rename), and opens the log for
// appending. The directory entry is synced by the first Append.
func Create(path string, data []byte) (*Log, error) {
	if err := publish(path, data); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, dir: filepath.Dir(path)}, nil
}

// Append writes one record and fsyncs it — and, on the first append,
// the directory entry Create published — before returning. It returns
// the number of records appended through this Log so far.
func (l *Log) Append(rec []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(rec); err != nil {
		return l.n, err
	}
	if err := l.f.Sync(); err != nil {
		return l.n, err
	}
	if l.dir != "" {
		if err := SyncDir(l.dir); err != nil {
			return l.n, err
		}
		l.dir = ""
	}
	l.n++
	return l.n, nil
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
