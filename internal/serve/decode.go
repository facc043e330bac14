package serve

import "strconv"

// scanDecide parses a decide body of the shape encoding/json writes for a
// DecideRequest — {"state":[n,…]} or {"states":[[n,…],…]}, in either case
// optionally with "qvalues":true or false, keys in any order, JSON
// whitespace between tokens — without reflection. The states' numbers are
// appended to flat row after row, and each row is checked against dim as it
// closes, so no [][]float64 is built.
//
// ok is true only for an object with exactly one of "state" and "states", at
// least one state, every state dim numbers long and no key twice. Every number
// must match JSON's number grammar and parse with strconv.ParseFloat, as
// encoding/json parses it, so a value keeps the bits encoding/json gives it.
// Bytes after the closing brace are not read, since json.Decoder.Decode does
// not read them either. For any other body (other keys or key spellings,
// escapes, null, strings, a number out of float64 range, a wrong dimension,
// malformed JSON) ok is false and the caller decodes the same bytes with
// encoding/json, whose value or error text is the reference answer.
func scanDecide(b []byte, dim int, flat []float64) (out []float64, rows int, single, qvalues, ok bool) {
	s := scanner{b: b}
	const (
		sawState = 1 << iota
		sawStates
		sawQValues
	)
	var seen int
	if !s.eat('{') {
		return flat, 0, false, false, false
	}
	for {
		key, ok := s.key()
		if !ok {
			return flat, 0, false, false, false
		}
		var bit int
		switch string(key) {
		case "state":
			bit = sawState
			flat, ok = s.state(flat, dim)
			rows, single = 1, true
		case "states":
			bit = sawStates
			flat, rows, ok = s.states(flat, dim)
		case "qvalues":
			bit = sawQValues
			qvalues, ok = s.boolean()
		default:
			return flat, 0, false, false, false
		}
		if !ok || seen&bit != 0 {
			return flat, 0, false, false, false
		}
		seen |= bit
		if s.eat('}') {
			break
		}
		if !s.eat(',') {
			return flat, 0, false, false, false
		}
	}
	if k := seen & (sawState | sawStates); k != sawState && k != sawStates {
		return flat, 0, false, false, false
	}
	return flat, rows, single, qvalues, true
}

// scanner walks a byte slice; i is the next unread byte.
type scanner struct {
	b []byte
	i int
}

// skip steps over JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, if it comes next.
func (s *scanner) eat(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes one object key and its colon, returning the key's bytes
// between the quotes as they stand. A key that escapes a character keeps its
// backslash here, so it never equals a plain field name and is left, like a
// differently cased key, to encoding/json, which unescapes keys and folds
// their case when it matches them to fields.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	if s.i == len(s.b) {
		return nil, false
	}
	key := s.b[start:s.i]
	s.i++
	return key, s.eat(':')
}

// boolean consumes true or false.
func (s *scanner) boolean() (v, ok bool) {
	s.skip()
	switch rest := s.b[s.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// states consumes a non-empty array of states, each dim numbers long.
func (s *scanner) states(flat []float64, dim int) ([]float64, int, bool) {
	if !s.eat('[') {
		return flat, 0, false
	}
	for rows := 1; ; rows++ {
		var ok bool
		if flat, ok = s.state(flat, dim); !ok {
			return flat, 0, false
		}
		if s.eat(']') {
			return flat, rows, true
		}
		if !s.eat(',') {
			return flat, 0, false
		}
	}
}

// state consumes one array of exactly dim numbers (dim >= 1) onto flat.
func (s *scanner) state(flat []float64, dim int) ([]float64, bool) {
	if !s.eat('[') {
		return flat, false
	}
	for n := 1; n <= dim; n++ {
		x, ok := s.number()
		if !ok {
			return flat, false
		}
		flat = append(flat, x)
		if s.eat(']') {
			return flat, n == dim
		}
		if !s.eat(',') {
			return flat, false
		}
	}
	return flat, false
}

// number consumes one JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// Only a token of that grammar is converted, since strconv.ParseFloat also
// accepts forms JSON does not (+1, .5, 1., inf, hex, underscores). The value
// is the one strconv.ParseFloat gives, as encoding/json uses it: exactNumber's
// when its fast path applies, strconv.ParseFloat's otherwise. A token out of
// float64 range fails here, as encoding/json rejects it too.
func (s *scanner) number() (float64, bool) {
	s.skip()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		i = digits(b, i)
	}
	tok := b[start:i]
	x, ok := exactNumber(tok)
	if !ok {
		var err error
		if x, err = strconv.ParseFloat(string(tok), 64); err != nil {
			return 0, false
		}
	}
	s.i = i
	return x, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactNumber converts a token of JSON's number grammar whose digits, read as
// one integer m, stay below 2^53 and whose decimal exponent e is at most 22
// in size. Then m and 10^|e| are exact float64s, and one IEEE multiply or
// divide rounds m·10^e correctly, to the value strconv.ParseFloat returns
// (Clinger's fast path, which strconv takes for such tokens too). ok is false
// for any other token. json.Marshal prints a float64 in its shortest form,
// so the fractions a state window holds (0, 0.5, 1/3, k/(n-1), …) mostly fit.
func exactNumber(tok []byte) (x float64, ok bool) {
	i, neg := 0, tok[0] == '-'
	if neg {
		i++
	}
	var m uint64
	exp, frac := 0, false
	for ; i < len(tok) && tok[i] != 'e' && tok[i] != 'E'; i++ {
		if tok[i] == '.' {
			frac = true
			continue
		}
		if m > (1<<53)/10 {
			return 0, false
		}
		m = m*10 + uint64(tok[i]-'0')
		if frac {
			exp--
		}
	}
	if i < len(tok) {
		e, eneg := 0, false
		if i++; tok[i] == '+' || tok[i] == '-' {
			eneg = tok[i] == '-'
			i++
		}
		for ; i < len(tok); i++ {
			if e > 1<<20 { // only keeps e from overflowing; ParseFloat decides
				return 0, false
			}
			e = e*10 + int(tok[i]-'0')
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if m >= 1<<53 || exp <= -len(pow10) || exp >= len(pow10) {
		return 0, false
	}
	if x = float64(m); neg {
		x = -x
	}
	if exp < 0 {
		return x / pow10[-exp], true
	}
	return x * pow10[exp], true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendActions appends the bytes json.Encoder writes for a greedy
// DecideResponse — {"action":n} when Action is set, else {"actions":[…]} —
// and its trailing newline.
func appendActions(b []byte, r *DecideResponse) []byte {
	if r.Action != nil {
		b = append(b, `{"action":`...)
		b = strconv.AppendInt(b, int64(*r.Action), 10)
		return append(b, "}\n"...)
	}
	b = append(b, `{"actions":[`...)
	for i, a := range r.Actions {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return append(b, "]}\n"...)
}
