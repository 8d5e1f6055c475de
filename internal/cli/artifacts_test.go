package cli

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeSpellsEveryArtifact keeps the README and the artifact table in
// step: the Quickstart shows every row's spelling, and every `nopfs sim` or
// `nopfs train` selector the README shows resolves through the command's
// own flags and lookup.
func TestReadmeSpellsEveryArtifact(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	start := strings.Index(readme, "## Quickstart")
	if start < 0 {
		t.Fatal("README has no Quickstart section")
	}
	quick := readme[start:]
	if end := strings.Index(quick[1:], "\n## "); end >= 0 {
		quick = quick[:end+1]
	}
	for _, a := range artifacts {
		spelling := "train -fig " + strconv.Itoa(a.fig)
		if a.flag != "" {
			spelling = "sim -" + a.flag
		}
		if !regexp.MustCompile(`nopfs ` + spelling + `\b`).MatchString(quick) {
			t.Errorf("README Quickstart does not show `nopfs %s` (artifact %s)", spelling, a.id)
		}
	}

	shown := regexp.MustCompile(`nopfs (sim|train) (-(?:fig \d+|all|sweep|ablation|table1|scenario [\w-]+))\b`)
	matches := shown.FindAllStringSubmatch(readme, -1)
	if len(matches) == 0 {
		t.Fatal("README shows no sim or train selector")
	}
	for _, m := range matches {
		var fs *flag.FlagSet
		var panels func(*query) ([]panel, error)
		if m[1] == "sim" {
			var o *simOptions
			fs, o = simFlags("nopfs sim")
			panels = o.panels
		} else {
			var o *trainOptions
			fs, o = trainFlags("nopfs train")
			panels = o.panels
		}
		fs.SetOutput(new(strings.Builder))
		if err := fs.Parse(strings.Fields(m[2])); err != nil {
			t.Errorf("README shows `%s`: %v", m[0], err)
			continue
		}
		q := &query{scale: 0.02, replicas: 1}
		got, err := panels(q)
		if err == nil {
			err = q.err
		}
		if err != nil || len(got) == 0 {
			t.Errorf("README shows `%s`, which resolves to %d panels (err %v)", m[0], len(got), err)
		}
	}
}
