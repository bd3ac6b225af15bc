package imapreduce_test

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/imr"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/serve"
	"imapreduce/internal/transport"
)

// TestSettingsHaveCallers holds DESIGN §15 to the settings structs: every
// exported field has a row, every row names a field, and no row is set
// by tests alone.
func TestSettingsHaveCallers(t *testing.T) {
	structs := map[string]any{
		"core.Options":              core.Options{},
		"core.WorkerHostOptions":    core.WorkerHostOptions{},
		"core.RemoteClusterOptions": core.RemoteClusterOptions{},
		"transport.TCPOptions":      transport.TCPOptions{},
		"transport.FaultyOptions":   transport.FaultyOptions{},
		"dfs.Config":                dfs.Config{},
		"serve.Config":              serve.Config{},
		"serve.Quota":               serve.Quota{},
		"mapreduce.Options":         mapreduce.Options{},
		"imr.Options":               imr.Options{},
	}
	section := settingsSection(t)
	if strings.Contains(section, "tests only") {
		t.Error(`DESIGN §15 still has a "tests only" setting`)
	}
	rows := settingRows(section)

	for name, v := range structs {
		typ := reflect.TypeOf(v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		documented := rows[name]
		for _, f := range fields {
			if !documented[f] {
				t.Errorf("%s.%s has no row in DESIGN §15", name, f)
			}
			delete(documented, f)
		}
		for f := range documented {
			t.Errorf("DESIGN §15 names %s.%s, which is not an exported field", name, f)
		}
		delete(rows, name)
	}
	var unknown []string
	for name := range rows {
		unknown = append(unknown, name)
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		t.Errorf("DESIGN §15 has rows for %s, which this test does not walk", name)
	}
}

// settingsSection returns DESIGN.md's §15, up to the next section.
func settingsSection(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 15. Settings\n")
	if start < 0 {
		t.Fatal("DESIGN.md has no §15 Settings")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	return section
}

// settingRows reads the first cell of each table row, where a code span
// "pkg.Struct.Field" names a field and a bare "Field" one more field of
// the struct named last. It returns the fields named per struct.
func settingRows(section string) map[string]map[string]bool {
	span := regexp.MustCompile("`([^`]+)`")
	rows := map[string]map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue
		}
		owner := ""
		for _, m := range span.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if i := strings.LastIndex(name, "."); i >= 0 {
				owner, name = name[:i], name[i+1:]
			}
			if rows[owner] == nil {
				rows[owner] = map[string]bool{}
			}
			rows[owner][name] = true
		}
	}
	return rows
}
