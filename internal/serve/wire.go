package serve

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// The /v1/infer wire format, read and written without reflection.
//
// A request body is one JSON object whose only member is "input", spelled
// literally, holding an array of exactly InLen RFC 8259 numbers, with JSON
// whitespace anywhere between tokens and nothing after the object. Every
// accepted value is bit-identical to what strconv.ParseFloat(s, 32), the
// call encoding/json makes for a float32, returns: the scanner converts a
// plain decimal of at most 15 significant digits itself (see number) and
// hands every other number to strconv. A response is the bytes
// json.NewEncoder(w).Encode writes for a struct of the same fields.

// readBody appends everything r yields to buf[:0], growing it only when the
// pooled buffer is too small. The error is r's (a *http.MaxBytesError past
// the body limit), never io.EOF.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeInput parses a request body into dst, which must receive exactly
// len(dst) values.
func decodeInput(b []byte, dst []float32) error {
	p := scanner{b: b}
	if !p.consume('{') || !p.token(`"input"`) || !p.consume(':') || !p.consume('[') {
		return p.errorf(`want {"input": [`)
	}
	n := 0
	if !p.consume(']') {
		for {
			p.space()
			v, err := p.number()
			if err != nil {
				return err
			}
			// Past len(dst) the values are still checked, so the error
			// names the whole length.
			if n < len(dst) {
				dst[n] = v
			}
			n++
			if p.consume(']') {
				break
			}
			if !p.consume(',') {
				return p.errorf("want , or ] after a number")
			}
		}
	}
	if !p.consume('}') {
		return p.errorf(`want } after the "input" array`)
	}
	if p.space(); p.i != len(b) {
		return p.errorf("trailing data after the object")
	}
	if n != len(dst) {
		return fmt.Errorf("input length %d, model wants %d", n, len(dst))
	}
	return nil
}

// scanner walks a request body; i is the offset of the next unread byte.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *scanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and consumes c if the body continues with it.
func (p *scanner) consume(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// token skips whitespace and consumes tok if the body continues with it.
func (p *scanner) token(tok string) bool {
	p.space()
	if len(p.b)-p.i < len(tok) || string(p.b[p.i:p.i+len(tok)]) != tok {
		return false
	}
	p.i += len(tok)
	return true
}

// number consumes one RFC 8259 number:
// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
// and returns it rounded to float32. A value beyond float32's range is an
// error, as it is for encoding/json.
//
// The scan accumulates the significant digits into mant and counts the
// fraction digits, so a plain decimal is mant·10^-frac. With at most 15
// significant digits and frac ≤ 22, mant and pow10[frac] are exact
// float64s, and one division gives the correctly rounded float64 of the
// decimal (Clinger's fast path). Rounding that to float32 gives the
// correctly rounded float32 unless the float64 sits exactly on a float32
// midpoint, where a second rounding may break the tie the wrong way; the
// value lies between 1e-22 and 1e15, inside float32's normal range, so a
// midpoint is exactly the 29 dropped mantissa bits reading 1<<28. That
// case, a longer mantissa and every exponent form go to strconv.
func (p *scanner) number() (float32, error) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	sig, frac := 0, 0 // significant digits seen; digits after the point
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if sig < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			sig++
		}
	default:
		return 0, p.errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant == 0 && b[i] == '0' {
				continue // a leading zero: not significant
			}
			if sig < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			sig++
		}
		if i == j {
			return 0, p.errorf("want a digit after the decimal point")
		}
		frac = i - j
	}
	exact := sig <= 15 && frac <= 22
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, p.errorf("want a digit in the exponent")
		}
		i, exact = j, false
	}
	if exact {
		f := float64(mant) / pow10[frac]
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			p.i = i
			if neg {
				f = -f
			}
			return float32(f), nil
		}
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 32)
	if err != nil {
		return 0, fmt.Errorf("input value %s: %w", b[p.i:i], err)
	}
	p.i = i
	return float32(f), nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (p *scanner) errorf(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, p.i)
}

// appendResponse appends res's /v1/infer response to b. It fails on a
// non-finite logit, which JSON cannot carry.
func appendResponse(b []byte, res *result) ([]byte, error) {
	b = append(b, `{"output":[`...)
	for i, v := range res.output {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return b, fmt.Errorf("serve: logit %d is %v, which JSON cannot carry", i, v)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, float64(v), 32)
	}
	b = append(b, `],"argmax":`...)
	b = strconv.AppendInt(b, int64(res.argmax), 10)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(res.batch), 10)
	b = append(b, `,"bucket":`...)
	b = strconv.AppendInt(b, int64(res.bucket), 10)
	b = append(b, `,"queue_ms":`...)
	b = appendFloat(b, float64(res.queueWait)/float64(time.Millisecond), 64)
	b = append(b, `,"compute_ms":`...)
	b = appendFloat(b, float64(res.compute)/float64(time.Millisecond), 64)
	return append(b, "}\n"...), nil
}

// appendFloat formats a finite f the way encoding/json does at the given
// bit size: the shortest round-tripping decimal, in 'e' form below 1e-6
// and from 1e21 on, with a two-digit negative exponent cut to one digit.
func appendFloat(b []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
