// Command dosn-node runs a real friend-to-friend OSN node over TCP: it
// hosts profile walls, authors posts, and periodically synchronizes with its
// peers using the same version-vector anti-entropy the simulated runtime
// uses — a Diaspora-style minimal deployment of the paper's architecture.
//
// A two-node demo on one machine:
//
//	dosn-node -id 1 -listen 127.0.0.1:7001 -walls 1 -post "1:hello from 1" \
//	          -peers 127.0.0.1:7002 -duration 5s -show 1 &
//	dosn-node -id 2 -listen 127.0.0.1:7002 -walls 1 \
//	          -peers 127.0.0.1:7001 -duration 5s -show 1
//
// Node 2 replicates wall 1 and converges to node 1's post within a sync
// round.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dosn/internal/fault"
	"dosn/internal/feed"
	"dosn/internal/obs"
	"dosn/internal/store"
	"dosn/internal/wire"
)

// wallID validates a user-supplied wall/user number into the wire protocol's
// int32 ID space: numbers outside [0, math.MaxInt32] are flag typos, not
// IDs, and must not silently wrap into someone else's wall.
func wallID(n int) (int32, error) {
	if n < 0 || n > math.MaxInt32 {
		return 0, fmt.Errorf("wall/user ID %d out of range [0, %d]", n, math.MaxInt32)
	}
	return int32(n), nil
}

// parseWallID parses and validates one wall/user ID from flag text.
func parseWallID(s string) (int32, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad wall/user ID %q", s)
	}
	return wallID(n)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dosn-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.Int("id", -1, "this node's user ID (required)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		walls     = flag.String("walls", "", "comma-separated wall IDs to host (own wall is always hosted)")
		peers     = flag.String("peers", "", "comma-separated peer addresses to sync with")
		posts     = flag.String("post", "", "posts to author, 'wall:text' separated by ';'")
		fields    = flag.String("field", "", "profile fields to set, 'wall:name=value' separated by ';'")
		syncEvery = flag.Duration("sync-every", 2*time.Second, "peer sync interval")
		syncBase  = flag.Duration("sync-backoff", time.Second, "first retry delay after a failed peer sync (doubles per consecutive failure, capped at 1m)")
		syncMax   = flag.Int("sync-max-attempts", 0, "consecutive sync failures per peer before the node exits with an error (0 = retry forever)")
		duration  = flag.Duration("duration", 10*time.Second, "how long to run (0 = until interrupt)")
		show      = flag.String("show", "", "wall ID to print at exit")
		timeline  = flag.Int("timeline", 0, "print the n newest feed items across hosted walls at exit")
		statePath = flag.String("state", "", "snapshot file: load at start (if present), save at exit")
		debugAddr = flag.String("debug-addr", "", "serve the debug HTTP endpoint (pprof, expvar with wire counters) on this address while the node runs")
	)
	flag.Parse()
	if *id < 0 {
		return fmt.Errorf("-id is required")
	}
	// Failpoints (wire.read, wire.write, store.save, ...) arm only when the
	// environment asks; otherwise each site costs one atomic load.
	if on, err := fault.EnableFromEnv(os.Getenv(fault.EnvVar)); err != nil {
		return fmt.Errorf("%s: %w", fault.EnvVar, err)
	} else if on {
		fmt.Fprintf(os.Stderr, "dosn-node: fault injection armed from %s\n", fault.EnvVar)
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint: http://%s/debug/vars (pprof under /debug/pprof/)\n", dbg.Addr())
	}
	nodeID, err := wallID(*id)
	if err != nil {
		return fmt.Errorf("-id: %w", err)
	}

	st, err := openState(*statePath, nodeID)
	if err != nil {
		return err
	}
	st.Host(nodeID)
	if *walls != "" {
		for _, w := range strings.Split(*walls, ",") {
			wid, err := parseWallID(w)
			if err != nil {
				return fmt.Errorf("-walls: %w", err)
			}
			st.Host(wid)
		}
	}
	now := time.Now().Unix()
	if err := authorPosts(st, *posts, now); err != nil {
		return err
	}
	if err := setFields(st, *fields, now, nodeID); err != nil {
		return err
	}

	srv := wire.NewServer(st)
	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	if *statePath != "" {
		defer func() {
			if err := saveState(*statePath, st); err != nil {
				fmt.Fprintln(os.Stderr, "save state:", err)
			}
		}()
	}
	defer srv.Close()
	fmt.Printf("node %d listening on %s, hosting walls %v\n", *id, addr, st.Walls())

	var peerList []string
	backoffs := make(map[string]*syncBackoff)
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			peerList = append(peerList, p)
			backoffs[p] = newSyncBackoff(*syncBase, *syncMax)
		}
	}
	// The backoff clock: a monotonic stopwatch, read as elapsed durations so
	// syncBackoff itself never touches the wall clock (tests drive it with
	// synthetic values).
	watch := obs.StartWatch()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	ticker := time.NewTicker(*syncEvery)
	defer ticker.Stop()

loop:
	for {
		select {
		case <-ticker.C:
			for _, p := range peerList {
				bo := backoffs[p]
				if !bo.ready(watch.Elapsed()) {
					continue // still backing off from the last failure
				}
				stats, err := wire.Sync(p, st)
				if err != nil {
					delay, terminal := bo.failure(watch.Elapsed())
					if terminal != nil {
						return fmt.Errorf("sync %s: %w (last error: %v)", p, terminal, err)
					}
					fmt.Fprintf(os.Stderr, "sync %s: %v (retry in %v)\n", p, err, delay)
					continue
				}
				bo.success()
				if stats.Pulled+stats.Pushed > 0 {
					fmt.Printf("sync %s: pulled %d, pushed %d posts\n", p, stats.Pulled, stats.Pushed)
				}
			}
		case <-stop:
			break loop
		case <-deadline:
			break loop
		}
	}

	if *show != "" {
		wid, err := parseWallID(*show)
		if err != nil {
			return fmt.Errorf("-show: %w", err)
		}
		ps, err := st.Posts(wid)
		if err != nil {
			return err
		}
		fmt.Printf("wall %d (%d posts):\n", wid, len(ps))
		for _, p := range ps {
			fmt.Printf("  [%d] by %d: %s\n", p.CreatedAt, p.ID.Author, p.Body)
		}
		fs, err := st.Fields(wid)
		if err == nil && len(fs) > 0 {
			fmt.Printf("fields: %v\n", fs)
		}
	}
	if *timeline > 0 {
		items := feed.Timeline(st, *timeline)
		fmt.Printf("timeline (%d newest across %d walls):\n", len(items), len(st.Walls()))
		for _, it := range items {
			fmt.Printf("  [%d] wall %d, by %d: %s\n", it.CreatedAt, it.Wall, it.ID.Author, it.Body)
		}
	}
	return nil
}

// openState loads a snapshot if path exists, otherwise starts fresh. A
// snapshot for a different node ID is rejected.
func openState(path string, id int32) (*store.Store, error) {
	if path == "" {
		return store.New(id), nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return store.New(id), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := store.Load(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	if st.Node() != id {
		return nil, fmt.Errorf("state %s belongs to node %d, not %d", path, st.Node(), id)
	}
	fmt.Printf("restored state from %s (%d walls)\n", path, len(st.Walls()))
	return st, nil
}

// saveState writes the snapshot atomically and durably (temp file + fsync +
// rename): after a crash the state file is the old snapshot or the new one,
// never a truncated mix, and a failed save leaves no temp file behind.
func saveState(path string, st *store.Store) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // no-op after a successful Close
			os.Remove(tmp)
		}
	}()
	if err = st.Save(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// authorPosts parses "wall:text;wall:text" and writes the posts locally.
func authorPosts(st *store.Store, spec string, now int64) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ";") {
		wallStr, body, ok := strings.Cut(item, ":")
		if !ok {
			return fmt.Errorf("bad -post item %q (want wall:text)", item)
		}
		wid, err := parseWallID(wallStr)
		if err != nil {
			return fmt.Errorf("bad wall in -post %q: %w", item, err)
		}
		st.Host(wid) // posting implies replicating locally first
		if _, err := st.Author(wid, body, now); err != nil {
			return err
		}
	}
	return nil
}

// setFields parses "wall:name=value;..." and applies LWW writes.
func setFields(st *store.Store, spec string, now int64, writer int32) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ";") {
		wallStr, rest, ok := strings.Cut(item, ":")
		if !ok {
			return fmt.Errorf("bad -field item %q (want wall:name=value)", item)
		}
		name, value, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("bad -field item %q (want wall:name=value)", item)
		}
		wid, err := parseWallID(wallStr)
		if err != nil {
			return fmt.Errorf("bad wall in -field %q: %w", item, err)
		}
		st.Host(wid)
		if _, err := st.SetField(wid, name, store.Field{Value: value, At: now, Writer: writer}); err != nil {
			return err
		}
	}
	return nil
}
