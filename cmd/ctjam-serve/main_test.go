package main

import (
	"testing"

	"ctjam/internal/serve"
)

func TestParseModelSpecs(t *testing.T) {
	cases := []struct {
		name   string
		legacy string
		lists  []string
		want   []serve.ModelSpec
		bad    bool
	}{
		{
			name:   "legacy only",
			legacy: "m.ctdq",
			want:   []serve.ModelSpec{{Name: "default", Path: "m.ctdq"}},
		},
		{
			name:  "named list",
			lists: []string{"a=a.ctdq,b=b.ctjm"},
			want: []serve.ModelSpec{
				{Name: "a", Path: "a.ctdq"},
				{Name: "b", Path: "b.ctjm"},
			},
		},
		{
			name:  "repeated flag",
			lists: []string{"a=a.ctdq", "b=b.ctjm"},
			want: []serve.ModelSpec{
				{Name: "a", Path: "a.ctdq"},
				{Name: "b", Path: "b.ctjm"},
			},
		},
		{
			name:   "legacy first then named",
			legacy: "m.ctdq",
			lists:  []string{"sweeper=s.ctdq"},
			want: []serve.ModelSpec{
				{Name: "default", Path: "m.ctdq"},
				{Name: "sweeper", Path: "s.ctdq"},
			},
		},
		{
			name:  "path with equals keeps the remainder",
			lists: []string{"a=dir/x=y.ctdq"},
			want:  []serve.ModelSpec{{Name: "a", Path: "dir/x=y.ctdq"}},
		},
		{name: "empty", bad: true},
		{name: "missing path", lists: []string{"a="}, bad: true},
		{name: "missing name", lists: []string{"=p.ctdq"}, bad: true},
		{name: "no separator", lists: []string{"plainpath"}, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseModelSpecs(tc.legacy, tc.lists)
			if tc.bad {
				if err == nil {
					t.Fatalf("got %v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d specs %v, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("spec %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
