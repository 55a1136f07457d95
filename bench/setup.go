package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prima"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// flushPolicy is stated in every report: it is part of what the checkin
// numbers mean.
const flushPolicy = "WAL on, default group commit; autocommit DML (wire Checkin) is appended to the log but not fsync-forced before the ack"

// dbConfig is the one configuration every workload runs: WAL on, every
// other knob at its default (4 MiB buffer, 8,192-atom decoded cache).
func dbConfig(dir string) prima.Config { return prima.Config{Dir: dir, WAL: true} }

// env is one served database over a generated scene.
type env struct {
	dir   string
	db    *prima.DB
	srv   *wire.Server
	cubes []*brepgen.Cube
}

// setup opens a fresh database under dir, installs the schema, builds the
// scene and its access path, checkpoints and starts serving. The returned
// duration is setup_s.
func setup(dir string, cubes int) (*env, time.Duration, error) {
	start := time.Now()
	db, err := prima.Open(dbConfig(dir))
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	e := &env{dir: dir, db: db}
	fail := func(step string, err error) (*env, time.Duration, error) {
		e.close()
		return nil, 0, fmt.Errorf("%s: %w", step, err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		return fail("schema", err)
	}
	if e.cubes, err = brepgen.BuildScene(db.Engine(), cubes); err != nil {
		return fail("scene", err)
	}
	if _, err := db.Exec("CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE"); err != nil {
		return fail("access path", err)
	}
	if err := db.Checkpoint(); err != nil {
		return fail("checkpoint", err)
	}
	if err := e.serve(); err != nil {
		return fail("serve", err)
	}
	return e, time.Since(start), nil
}

func (e *env) serve() error {
	srv, err := wire.ServeConfig(e.db, "127.0.0.1:0", wire.ServerConfig{})
	if err != nil {
		return err
	}
	e.srv = srv
	return nil
}

// reopen closes the database and opens it again from the bytes in dir, the
// way a restart would, and serves it.
func (e *env) reopen() error {
	if err := e.stop(); err != nil {
		return err
	}
	db, err := prima.Open(dbConfig(e.dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.db = db
	return e.serve()
}

// stop closes the server and the database and keeps the directory.
func (e *env) stop() error {
	var err error
	if e.srv != nil {
		err = e.srv.Close()
		e.srv = nil
	}
	if e.db != nil {
		if cerr := e.db.Close(); err == nil {
			err = cerr
		}
		e.db = nil
	}
	return err
}

// close stops everything and removes the directory.
func (e *env) close() error {
	err := e.stop()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// storedBytes sums the sizes of the regular files under dir, leaving out the
// log segments (wal_*.log). After a checkpoint the log holds nothing a
// restart needs; its segment files are recycled, and their size at any
// instant says where in a segment the log happens to stand, not how much
// data is stored.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		if strings.HasPrefix(d.Name(), "wal_") && strings.HasSuffix(d.Name(), ".log") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
