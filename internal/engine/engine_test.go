package engine

import (
	"testing"

	"spgcnn/internal/conv"
)

func TestSupports(t *testing.T) {
	plain := conv.Square(8, 4, 2, 3, 1)
	padded := plain
	padded.Px, padded.Py = 1, 1
	invalid := plain
	invalid.Nf = 0

	open := Generator{Name: "open"}
	plainOnly := Generator{Name: "plain", Supports: PlainOnly}
	for _, tc := range []struct {
		g    Generator
		s    conv.Spec
		want bool
	}{
		{open, plain, true},
		{open, padded, true},
		{open, invalid, false},
		{plainOnly, plain, true},
		{plainOnly, padded, false},
		{plainOnly, invalid, false},
	} {
		if got := Supports(tc.g, tc.s); got != tc.want {
			t.Errorf("Supports(%s, %v) = %v, want %v", tc.g.Name, tc.s, got, tc.want)
		}
	}
}
