package bench

import (
	"context"
	"fmt"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/storage"
	"rdbdyn/internal/workload"
)

// lab is an experiment fixture: a database loaded from a workload spec,
// with cold-cache measurement helpers.
type lab struct {
	db  *engine.DB
	tab *catalog.Table
}

// newLab builds a database with the given buffer-pool frame budget and
// loads the spec.
func newLab(poolFrames int, optCfg core.Config, spec workload.TableSpec) (*lab, error) {
	db := engine.Open(engine.Options{PoolFrames: poolFrames, Optimizer: optCfg})
	tab, err := workload.Build(db.Catalog(), spec)
	if err != nil {
		return nil, err
	}
	return &lab{db: db, tab: tab}, nil
}

// coldRun evicts the cache, zeroes counters, runs f, and returns the
// I/O it cost.
func (l *lab) coldRun(f func() error) (storage.IOStats, error) {
	l.db.Pool().EvictAll()
	l.db.Pool().ResetStats()
	if err := f(); err != nil {
		return storage.IOStats{}, err
	}
	return l.db.Pool().Stats(), nil
}

// drain pulls up to limit rows (0 = all) from a result and closes it.
func drainResult(res *engine.Result, limit int) (int, error) {
	count := 0
	for {
		_, ok, err := res.Next()
		if err != nil {
			res.Close()
			return count, err
		}
		if !ok {
			break
		}
		count++
		if limit > 0 && count >= limit {
			break
		}
	}
	return count, res.Close()
}

// runStmt executes a prepared statement cold and reports rows and I/O.
func (l *lab) runStmt(stmt *engine.Stmt, binds engine.Binds, limit int) (rows int, io storage.IOStats, st core.RetrievalStats, err error) {
	io, err = l.coldRun(func() error {
		res, err := stmt.QueryContext(context.Background(), binds)
		if err != nil {
			return err
		}
		st = res.Stats() // updated below after drain
		rows, err = drainResult(res, limit)
		if err != nil {
			return err
		}
		st = res.Stats()
		return nil
	})
	return rows, io, st, err
}

// runFrozen executes a frozen statement cold.
func (l *lab) runFrozen(stmt *engine.FrozenStmt, binds engine.Binds, limit int) (rows int, io storage.IOStats, err error) {
	io, err = l.coldRun(func() error {
		res, err := stmt.QueryContext(context.Background(), binds)
		if err != nil {
			return err
		}
		rows, err = drainResult(res, limit)
		return err
	})
	return rows, io, err
}

// pinned names a static plan: tscan, or tactic over one index.
func pinned(tactic string, ix *catalog.Index) *core.Plan {
	if ix == nil {
		return &core.Plan{Tactic: tactic}
	}
	return &core.Plan{Tactic: tactic, Indexes: []string{ix.Name}}
}

// runPlan executes a pinned plan cold through core directly, on a
// private default-configured optimizer.
func (l *lab) runPlan(q *core.Query, p *core.Plan, limit int) (rows int, io storage.IOStats, err error) {
	io, err = l.coldRun(func() error {
		rr := core.NewOptimizer(core.Config{}).RunPlan(nil, q, p)
		defer rr.Close()
		for {
			_, ok, err := rr.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			rows++
			if limit > 0 && rows >= limit {
				return nil
			}
		}
	})
	return rows, io, err
}

// mustIndex fetches an index by name.
func (l *lab) mustIndex(name string) (*catalog.Index, error) {
	for _, ix := range l.tab.Indexes {
		if ix.Name == name {
			return ix, nil
		}
	}
	return nil, fmt.Errorf("bench: no index %s", name)
}
