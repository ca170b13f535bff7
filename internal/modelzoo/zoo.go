// Package modelzoo provides programmatic builders for the 65 models the
// paper evaluates: 55 TensorFlow models from MLPerf Inference, AI-Matrix,
// and the TensorFlow Slim / Detection / DeepLab zoos (Table VIII), plus 10
// comparable MXNet models from the MXNet Gluon zoo (Table X).
//
// Image-classification backbones (ResNet, MobileNet, VGG, AlexNet,
// DenseNet, Inception/GoogLeNet) are built from their published
// architectures, so layer counts, shapes, and flop totals are structural.
// Detection/segmentation/super-resolution models are built from their
// backbone plus a head whose operator mix (convolutions vs Where/reshape
// ops) reproduces the paper's reported convolution latency percentages;
// their exact proposal plumbing is approximated: a substitution, spelled
// out at each head builder in detection.go.
//
// Static metadata (accuracy, frozen-graph size) and the paper's measured
// reference numbers (online latency, maximum throughput, optimal batch
// size, convolution percentage) are carried verbatim from Tables VIII and
// X so the benchmark harness can print paper-vs-measured comparisons.
package modelzoo

import (
	"fmt"
	"sort"

	"xsp/internal/framework"
)

// Task is the model's problem domain, as abbreviated in Table VIII.
type Task string

// Tasks covered by the zoo.
const (
	ImageClassification  Task = "IC"
	ObjectDetection      Task = "OD"
	InstanceSegmentation Task = "IS"
	SemanticSegmentation Task = "SS"
	SuperResolution      Task = "SR"
)

// Paper holds the reference measurements published in Table VIII (TF) or
// Table X (MXNet) for one model on Tesla_V100. MXNet rows store online
// latency and throughput normalized to the TensorFlow model, as the paper
// does.
type Paper struct {
	OnlineLatencyMS float64
	MaxThroughput   float64
	OptimalBatch    int
	ConvPercent     float64
}

// Model is one zoo entry: identity, static metadata, the paper's reference
// measurements, and a builder producing the executed-layer graph for a
// batch size.
type Model struct {
	ID          int // paper ID (Table VIII / Table X)
	Name        string
	Task        Task
	Framework   string // "tensorflow" or "mxnet"
	Accuracy    float64
	GraphSizeMB float64
	Paper       Paper

	// MaxBatch caps the batch sweep for memory-heavy models (the paper
	// evaluates most models to batch 256 but e.g. DeepLab only to 1).
	MaxBatch int

	Build func(batch int) *framework.Graph
}

// Graph builds and validates the model's graph at the given batch size.
func (m Model) Graph(batch int) (*framework.Graph, error) {
	if batch < 1 {
		return nil, fmt.Errorf("modelzoo: batch size %d < 1", batch)
	}
	if m.MaxBatch > 0 && batch > m.MaxBatch {
		return nil, fmt.Errorf("modelzoo: %s supports batch <= %d, got %d", m.Name, m.MaxBatch, batch)
	}
	g := m.Build(batch)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

var (
	tfModels    []Model
	mxnetModels []Model
)

func register(m Model) {
	if m.MaxBatch == 0 {
		m.MaxBatch = 256
	}
	tfModels = append(tfModels, m)
}

func registerMXNet(m Model) {
	if m.MaxBatch == 0 {
		m.MaxBatch = 256
	}
	mxnetModels = append(mxnetModels, m)
}

// Models returns the 55 TensorFlow models in paper ID order.
func Models() []Model {
	out := append([]Model(nil), tfModels...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MXNetModels returns the 10 MXNet models in paper ID order.
func MXNetModels() []Model {
	out := append([]Model(nil), mxnetModels...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ImageClassificationModels returns the 37 TF image classification models
// (the subset characterised in depth in Table IX).
func ImageClassificationModels() []Model {
	var out []Model
	for _, m := range Models() {
		if m.Task == ImageClassification {
			out = append(out, m)
		}
	}
	return out
}

// ByName returns the TF or MXNet model with the given name.
func ByName(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range MXNetModels() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// ByID returns the TF model with the given paper ID.
func ByID(id int) (Model, bool) {
	for _, m := range Models() {
		if m.ID == id {
			return m, true
		}
	}
	return Model{}, false
}
