package store

import (
	"bytes"
	"math/rand"
	"testing"

	"dosn/internal/vclock"
)

// The benchmarks share one shape, the repository benchmark's node_sync store
// halfway through an iteration: 64 walls of 520 posts, two authors writing
// one post each per wall per minute, bodies of 40–199 letters.
const (
	benchWalls   = 64
	benchPerWall = 520
	benchMinutes = benchPerWall / 2
	benchFirstID = NodeID(100)
	benchAuthorA = NodeID(1)
	benchAuthorB = NodeID(2)
)

// benchPosts returns the posts in arrival order: minute by minute, wall by
// wall, both authors.
func benchPosts() []Post {
	rng := rand.New(rand.NewSource(1))
	const letters = "abcdefghijklmnopqrstuvwxyz      "
	posts := make([]Post, 0, benchWalls*benchPerWall)
	for m := 0; m < benchMinutes; m++ {
		for w := 0; w < benchWalls; w++ {
			for _, author := range []NodeID{benchAuthorA, benchAuthorB} {
				body := make([]byte, 40+rng.Intn(160))
				for i := range body {
					body[i] = letters[rng.Intn(len(letters))]
				}
				posts = append(posts, Post{
					ID:        PostID{Author: author, Seq: uint64(m + 1)},
					Wall:      benchFirstID + NodeID(w),
					Body:      string(body),
					CreatedAt: int64(m),
				})
			}
		}
	}
	return posts
}

func benchStore(b *testing.B, posts []Post) *Store {
	s := New(benchAuthorA)
	for w := 0; w < benchWalls; w++ {
		s.Host(benchFirstID + NodeID(w))
	}
	for _, p := range posts {
		if isNew, err := s.Apply(p); err != nil || !isNew {
			b.Fatalf("Apply(%v) = %v, %v", p.ID, isNew, err)
		}
	}
	return s
}

var benchSink int

// BenchmarkApply fills an empty 64-wall store; one op is one new post.
func BenchmarkApply(b *testing.B) {
	posts := benchPosts()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(posts) {
		b.StopTimer()
		s := benchStore(b, nil)
		b.StartTimer()
		for _, p := range posts[:min(len(posts), b.N-n)] {
			if _, err := s.Apply(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMissingFrom is one anti-entropy delta for a replica that has the
// older half of both authors' posts.
func BenchmarkMissingFrom(b *testing.B) {
	s := benchStore(b, benchPosts())
	half := vclock.Clock{benchAuthorA: benchMinutes / 2, benchAuthorB: benchMinutes / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missing, err := s.MissingFrom(benchFirstID+NodeID(i%benchWalls), half)
		if err != nil || len(missing) != benchPerWall/2 {
			b.Fatalf("MissingFrom = %d posts, %v", len(missing), err)
		}
		benchSink += len(missing)
	}
}

// BenchmarkPosts is one wall read in rendering order.
func BenchmarkPosts(b *testing.B) {
	s := benchStore(b, benchPosts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := s.Posts(benchFirstID + NodeID(i%benchWalls))
		if err != nil || len(ps) != benchPerWall {
			b.Fatalf("Posts = %d posts, %v", len(ps), err)
		}
		benchSink += len(ps)
	}
}

// BenchmarkSave snapshots the whole store into a buffer. In "reused" the
// buffer has grown to fit, as a node writing its state file to a buffered
// file would see it; in "fresh" it is new on every op, as the repository
// benchmark's node_sync snapshots it.
func BenchmarkSave(b *testing.B) {
	s := benchStore(b, benchPosts())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		reset func()
	}{
		{"reused", buf.Reset},
		{"fresh", func() { buf = bytes.Buffer{} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.reset()
				if err := s.Save(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoad restores the whole store from its snapshot.
func BenchmarkLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := benchStore(b, benchPosts()).Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(s.walls)
	}
}
