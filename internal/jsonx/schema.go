package jsonx

// The objects both schemas carry: a post with its ID, a digest entry, and a
// profile field, in store's JSON names. store imports this package, so the
// walkers take the addresses their fields decode into rather than store's
// types.

var (
	authorSeqNames = []string{"author", "seq"}
	postNames      = []string{"id", "wall", "body", "createdAt"}
	fieldNames     = []string{"value", "at", "writer"}
)

// AuthorSeq consumes {"author":…,"seq":…}: a post ID or a digest entry.
func (p *Parser) AuthorSeq(author *int32, seq *uint64) {
	o := p.Object(authorSeqNames)
	for o.Next() {
		if o.Key == 0 {
			*author = p.Int32()
		} else {
			*seq = p.Uint64()
		}
	}
}

// Post consumes a post: {"id":{"author":…,"seq":…},"wall":…,"body":…,
// "createdAt":…}.
func (p *Parser) Post(author *int32, seq *uint64, wall *int32, body *string, createdAt *int64) {
	o := p.Object(postNames)
	for o.Next() {
		switch o.Key {
		case 0:
			p.AuthorSeq(author, seq)
		case 1:
			*wall = p.Int32()
		case 2:
			*body = p.Str()
		case 3:
			*createdAt = p.Int64()
		}
	}
}

// Field consumes a profile field: {"value":…,"at":…,"writer":…}.
func (p *Parser) Field(value *string, at *int64, writer *int32) {
	o := p.Object(fieldNames)
	for o.Next() {
		switch o.Key {
		case 0:
			*value = p.Str()
		case 1:
			*at = p.Int64()
		case 2:
			*writer = p.Int32()
		}
	}
}

// Slice consumes an array, decoding each element into a zero T with elem.
// An empty array gives an empty slice and null a nil one, as encoding/json
// decodes them into a nil slice.
func Slice[T any](p *Parser, elem func(*Parser, *T)) []T {
	if p.null() {
		return nil
	}
	s := []T{}
	for a := p.Array(); a.Next(); {
		var zero T
		s = append(s, zero)
		elem(p, &s[len(s)-1])
	}
	return s
}

// Map consumes an object with any keys, decoding each value into a
// zero V with val. An empty object gives an empty map and null a nil one,
// as encoding/json decodes them into a nil map; a repeated key declines.
func Map[V any](p *Parser, val func(*Parser, *V)) map[string]V {
	if p.null() {
		return nil
	}
	m := map[string]V{}
	for o := p.Object(nil); o.Next(); {
		name := o.Name
		if _, dup := m[name]; dup {
			p.Decline()
			break
		}
		var v V
		val(p, &v)
		m[name] = v
	}
	return m
}
