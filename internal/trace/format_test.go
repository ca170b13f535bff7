package trace

import (
	"strings"
	"testing"
)

func treeFixture() *Trace {
	return &Trace{Spans: []*Span{
		{ID: 1, Level: LevelModel, Name: "model_prediction", Begin: 0, End: 100},
		{ID: 2, ParentID: 1, Level: LevelLayer, Name: "conv1", Begin: 5, End: 40},
		{ID: 3, ParentID: 2, Level: LevelKernel, Kind: KindLaunch, Name: "cudaLaunchKernel", Begin: 6, End: 8},
		{ID: 4, ParentID: 2, Level: LevelKernel, Kind: KindExec, Name: "scudnn", Begin: 10, End: 38},
		{ID: 5, ParentID: 1, Level: LevelLayer, Name: "relu1", Begin: 45, End: 60},
	}}
}

func treeString(tr *Trace, maxChildren int) string {
	var sb strings.Builder
	tr.FormatTree(&sb, maxChildren)
	return sb.String()
}

func TestFormatTree(t *testing.T) {
	out := treeString(treeFixture(), 0)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "model_prediction") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  conv1") {
		t.Errorf("layer not indented once: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    cudaLaunchKernel [launch]") {
		t.Errorf("launch kind not annotated: %q", lines[2])
	}
	// Children sorted by begin: relu1 after conv1.
	if !strings.HasPrefix(lines[4], "  relu1") {
		t.Errorf("sibling order wrong: %q", lines[4])
	}
}

func TestFormatTreeElision(t *testing.T) {
	tr := treeFixture()
	out := treeString(tr, 1)
	if !strings.Contains(out, "... 1 more children") {
		t.Fatalf("elision missing:\n%s", out)
	}
}

func TestFormatTreeOrphans(t *testing.T) {
	// A span whose parent is missing from the trace becomes a root
	// rather than disappearing.
	tr := &Trace{Spans: []*Span{
		{ID: 7, ParentID: 99, Level: LevelKernel, Name: "orphan", Begin: 0, End: 1},
	}}
	if !strings.Contains(treeString(tr, 0), "orphan") {
		t.Fatal("orphan span lost")
	}
}
