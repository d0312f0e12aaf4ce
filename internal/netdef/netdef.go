// Package netdef parses textual network descriptions and builds runnable
// nn.Networks from them. The paper's framework accepts its CNN description
// via Google Protocol Buffers "similar to how CAFFE describes its inputs"
// (§4); this package plays that role with a prototxt-style text format, so
// the spg-train command and the examples can describe networks in files:
//
//	name: "cifar10"
//	input { channels: 3 height: 36 width: 36 }
//	layer { name: "conv0" type: "conv" features: 64 kernel: 5 stride: 1 }
//	layer { name: "relu0" type: "relu" }
//	layer { name: "pool0" type: "maxpool" kernel: 4 stride: 4 }
//	layer { name: "fc0"   type: "fc" outputs: 10 }
//
// Supported layer types: conv (features, kernel, stride), relu,
// maxpool (kernel, stride), fc (outputs). Shapes are inferred top to
// bottom from the input block.
package netdef

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// NetDef is a parsed network description.
type NetDef struct {
	Name   string
	Input  InputDef
	Layers []LayerDef
}

// InputDef is the per-image input geometry.
type InputDef struct {
	Channels, Height, Width int
}

// LayerDef is one parsed layer block.
type LayerDef struct {
	Name   string
	Type   string
	Fields map[string]int
	Floats map[string]float64
	// Strings holds the block's quoted-string fields beyond name/type —
	// e.g. an add layer's "from" naming its skip-connection source.
	Strings map[string]string
}

// StringField returns the named string field or def if absent.
func (l LayerDef) StringField(name, def string) string {
	if v, ok := l.Strings[name]; ok {
		return v
	}
	return def
}

// Field returns the named integer field or def if absent.
func (l LayerDef) Field(name string, def int) int {
	if v, ok := l.Fields[name]; ok {
		return v
	}
	return def
}

// FloatField returns the named float field (integer fields are promoted)
// or def if absent.
func (l LayerDef) FloatField(name string, def float64) float64 {
	if v, ok := l.Floats[name]; ok {
		return v
	}
	if v, ok := l.Fields[name]; ok {
		return float64(v)
	}
	return def
}

// MustField returns the named field or an error naming the layer.
func (l LayerDef) MustField(name string) (int, error) {
	v, ok := l.Fields[name]
	if !ok {
		return 0, fmt.Errorf("netdef: layer %q (%s) missing field %q", l.Name, l.Type, name)
	}
	return v, nil
}

type token struct {
	kind string // "ident", "string", "number", "{", "}", ":"
	text string
	line int // 0-based
	col  int // 0-based byte column of the token's first character
}

type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
}

// col returns the 0-based column of byte offset pos on the current line.
func (lx *lexer) col(pos int) int { return pos - lx.lineStart }

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		ch := lx.src[lx.pos]
		switch {
		case ch == '\n':
			lx.line++
			lx.pos++
			lx.lineStart = lx.pos
		case ch == ' ' || ch == '\t' || ch == '\r':
			lx.pos++
		case ch == '#': // comment to end of line
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: "eof", line: lx.line, col: lx.col(lx.pos)}, nil
scan:
	ch := lx.src[lx.pos]
	start := lx.pos
	switch {
	case ch == '{' || ch == '}' || ch == ':':
		lx.pos++
		return token{kind: string(ch), text: string(ch), line: lx.line, col: lx.col(start)}, nil
	case ch == '"':
		end := strings.IndexByte(lx.src[lx.pos+1:], '"')
		if end < 0 {
			return token{}, fmt.Errorf("netdef: line %d:%d: unterminated string", lx.line+1, lx.col(start)+1)
		}
		s := lx.src[lx.pos+1 : lx.pos+1+end]
		lx.pos += end + 2
		return token{kind: "string", text: s, line: lx.line, col: lx.col(start)}, nil
	case unicode.IsDigit(rune(ch)) || ch == '-':
		lx.pos++
		seenDot := false
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '.' && !seenDot {
				seenDot = true
			} else if !unicode.IsDigit(rune(c)) {
				break
			}
			lx.pos++
		}
		return token{kind: "number", text: lx.src[start:lx.pos], line: lx.line, col: lx.col(start)}, nil
	case unicode.IsLetter(rune(ch)) || ch == '_':
		for lx.pos < len(lx.src) {
			c := rune(lx.src[lx.pos])
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
				break
			}
			lx.pos++
		}
		return token{kind: "ident", text: lx.src[start:lx.pos], line: lx.line, col: lx.col(start)}, nil
	default:
		return token{}, fmt.Errorf("netdef: line %d:%d: unexpected character %q", lx.line+1, lx.col(start)+1, ch)
	}
}

type parser struct {
	lx  lexer
	err error
}

func (p *parser) advance() token {
	if p.err != nil {
		return token{kind: "eof"}
	}
	t, err := p.lx.next()
	if err != nil {
		p.err = err
		return token{kind: "eof"}
	}
	return t
}

// fail formats an error anchored at t's 1-based line:column position, so
// a bad attribute deep inside a zoo file points at the offending token.
func (p *parser) fail(t token, format string, args ...any) error {
	return fmt.Errorf("netdef: line %d:%d: %s", t.line+1, t.col+1, fmt.Sprintf(format, args...))
}

// Parse parses a network description.
func Parse(src string) (*NetDef, error) {
	p := &parser{lx: lexer{src: src}}
	def := &NetDef{}
	for {
		t := p.advance()
		if p.err != nil {
			return nil, p.err
		}
		if t.kind == "eof" {
			break
		}
		if t.kind != "ident" {
			return nil, p.fail(t, "expected identifier, got %q", t.text)
		}
		switch t.text {
		case "name":
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			v := p.advance()
			if p.err != nil {
				return nil, p.err
			}
			if v.kind != "string" {
				return nil, p.fail(v, "name must be a quoted string")
			}
			def.Name = v.text
		case "input":
			fields, floats, _, err := p.block(false)
			if err != nil {
				return nil, err
			}
			for f, v := range floats {
				return nil, fmt.Errorf("netdef: input block: field %q takes an integer, not the decimal %v", f, v)
			}
			for f := range fields {
				if f != "channels" && f != "height" && f != "width" {
					return nil, fmt.Errorf("netdef: input block has no field %q", f)
				}
			}
			def.Input = InputDef{
				Channels: fields["channels"],
				Height:   fields["height"],
				Width:    fields["width"],
			}
		case "layer":
			fields, floats, strs, err := p.block(true)
			if err != nil {
				return nil, err
			}
			l := LayerDef{Name: strs["name"], Type: strs["type"], Fields: fields, Floats: floats, Strings: strs}
			delete(strs, "name")
			delete(strs, "type")
			if l.Type == "" {
				return nil, p.fail(t, "layer %q has no type", l.Name)
			}
			def.Layers = append(def.Layers, l)
		default:
			return nil, p.fail(t, "unknown top-level key %q", t.text)
		}
	}
	if def.Input.Channels < 1 || def.Input.Height < 1 || def.Input.Width < 1 {
		return nil, fmt.Errorf("netdef: missing or invalid input block (channels/height/width must be positive)")
	}
	if len(def.Layers) == 0 {
		return nil, fmt.Errorf("netdef: no layers")
	}
	return def, nil
}

func (p *parser) expect(kind string) error {
	t := p.advance()
	if p.err != nil {
		return p.err
	}
	if t.kind != kind {
		return p.fail(t, "expected %q, got %q", kind, t.text)
	}
	return nil
}

// block parses `{ key: value ... }`, returning integer fields, float
// fields (values containing a decimal point) and — when allowStrings —
// string fields.
func (p *parser) block(allowStrings bool) (map[string]int, map[string]float64, map[string]string, error) {
	if err := p.expect("{"); err != nil {
		return nil, nil, nil, err
	}
	ints := map[string]int{}
	floats := map[string]float64{}
	strs := map[string]string{}
	for {
		t := p.advance()
		if p.err != nil {
			return nil, nil, nil, p.err
		}
		if t.kind == "}" {
			return ints, floats, strs, nil
		}
		if t.kind != "ident" {
			return nil, nil, nil, p.fail(t, "expected field name, got %q", t.text)
		}
		if err := p.expect(":"); err != nil {
			return nil, nil, nil, err
		}
		v := p.advance()
		if p.err != nil {
			return nil, nil, nil, p.err
		}
		switch v.kind {
		case "number":
			if strings.ContainsRune(v.text, '.') {
				f, err := strconv.ParseFloat(v.text, 64)
				if err != nil {
					return nil, nil, nil, p.fail(v, "bad number %q", v.text)
				}
				floats[t.text] = f
				break
			}
			n, err := strconv.Atoi(v.text)
			if err != nil {
				return nil, nil, nil, p.fail(v, "bad number %q", v.text)
			}
			ints[t.text] = n
		case "string":
			if !allowStrings {
				return nil, nil, nil, p.fail(v, "string value not allowed for %q here", t.text)
			}
			strs[t.text] = v.text
		default:
			return nil, nil, nil, p.fail(v, "expected value for %q", t.text)
		}
	}
}
