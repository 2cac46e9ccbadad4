// Package varade is a from-scratch Go reproduction of "VARADE: a
// Variational-based AutoRegressive model for Anomaly Detection on the Edge"
// (Mascolini et al., DAC 2024).
//
// The package re-exports the full system: the VARADE model itself
// (internal/core), the five baseline detectors of §3.3, the simulated
// 86-channel robotic testbed of §4, the AUC-ROC evaluation, the edge-board
// profiles that regenerate Table 2 and Figure 3, and the streaming runtime.
//
// Quick start:
//
//	ds, _ := varade.GenerateDataset(varade.SmallDatasetConfig())
//	model, _ := varade.New(varade.EdgeConfig(86))
//	_ = model.Fit(ds.Train)
//	scores := varade.ScoreSeriesBatched(model, ds.Test)
//	fmt.Println(varade.AUCROC(scores, ds.Labels))
package varade

import (
	"context"

	"varade/internal/baselines/ae"
	"varade/internal/baselines/arlstm"
	"varade/internal/baselines/gbrf"
	"varade/internal/baselines/iforest"
	"varade/internal/baselines/knn"
	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/edge"
	"varade/internal/eval"
	"varade/internal/robot"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// Core model.

// Config describes a VARADE architecture (see internal/core.Config).
type Config = core.Config

// Model is a VARADE network.
type Model = core.Model

// TrainConfig controls Model.Fit.
type TrainConfig = core.TrainConfig

// ResidualScorer scores a VARADE net with the conventional residual
// criterion instead of the variance — the paper's central ablation.
type ResidualScorer = core.ResidualScorer

// New builds an untrained VARADE model.
func New(cfg Config) (*Model, error) { return core.New(cfg) }

// LoadModel reads a model saved with Model.Save and reconstructs it from
// the embedded config header — no architecture flags needed.
func LoadModel(path string) (*Model, error) { return core.LoadModel(path) }

// PaperConfig returns the exact architecture of §3.1 (T=512, 8 layers,
// 128→1024 feature maps).
func PaperConfig(channels int) Config { return core.PaperConfig(channels) }

// EdgeConfig returns a reduced architecture that trains in seconds on one
// CPU core while preserving the paper's topology.
func EdgeConfig(channels int) Config { return core.EdgeConfig(channels) }

// DefaultTrainConfig returns training settings sized for EdgeConfig models.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// Detector interface and helpers.

// Detector is the interface implemented by VARADE and all baselines.
type Detector = detect.Detector

// ScoreSeries slides a detector over a (T, C) series, returning one score
// per time step.
func ScoreSeries(d Detector, series *Tensor) []float64 { return detect.ScoreSeries(d, series) }

// Scorer is the unified scoring surface: batched float64 and float32
// entry points plus a Capabilities descriptor, implemented natively by
// VARADE, AE, AR-LSTM and the residual ablation scorer and synthesised
// for every other detector by AsScorer.
type Scorer = detect.Scorer

// ScorerCapabilities describes a detector's scoring engine (batched
// path, reduced-precision path, current and supported precisions).
type ScorerCapabilities = detect.Capabilities

// AsScorer returns d's unified scoring surface, wrapping detectors
// without a native batched path in a per-window adapter.
func AsScorer(d Detector) Scorer { return detect.AsScorer(d) }

// ScoreSeriesBatched scores a series through one detect.Feed: VARADE's
// incremental stream, or the batched engine (the per-window loop for
// detectors without a batched path). Scores are identical to ScoreSeries.
func ScoreSeriesBatched(d Detector, series *Tensor) []float64 {
	return detect.ScoreSeriesBatched(d, series)
}

// Inference precision (the float32 fast path and int8 quantization).

// Precision constants for Config.Precision and Model.SetPrecision:
// training always runs in float64; inference runs in the configured
// precision.
const (
	PrecisionFloat64 = core.PrecisionFloat64
	PrecisionFloat32 = core.PrecisionFloat32
	PrecisionInt8    = core.PrecisionInt8
)

// Tensor32 is the float32 tensor used by the inference fast path.
type Tensor32 = tensor.Tensor32

// CalibrationStat is one activation-quantization entry of an int8
// model's calibration report (see Model.CalibrationStats).
type CalibrationStat = core.CalibrationStat

// Baselines (§3.3).

// ARLSTMConfig configures the AR-LSTM baseline.
type ARLSTMConfig = arlstm.Config

// NewARLSTM builds the AR-LSTM forecaster.
func NewARLSTM(cfg ARLSTMConfig) (*arlstm.Model, error) { return arlstm.New(cfg) }

// GBRFConfig configures the gradient-boosted regression forest.
type GBRFConfig = gbrf.Config

// TreeConfig controls CART tree growth inside GBRF.
type TreeConfig = gbrf.TreeConfig

// NewGBRF builds the GBRF forecaster.
func NewGBRF(cfg GBRFConfig) (*gbrf.Model, error) { return gbrf.New(cfg) }

// AEConfig configures the convolutional autoencoder.
type AEConfig = ae.Config

// NewAE builds the six-ResNet-block autoencoder.
func NewAE(cfg AEConfig) (*ae.Model, error) { return ae.New(cfg) }

// KNNConfig configures the k-nearest-neighbour detector.
type KNNConfig = knn.Config

// NewKNN builds the kNN detector.
func NewKNN(cfg KNNConfig) (*knn.Model, error) { return knn.New(cfg) }

// IForestConfig configures the Isolation Forest.
type IForestConfig = iforest.Config

// NewIForest builds the Isolation Forest detector.
func NewIForest(cfg IForestConfig) (*iforest.Model, error) { return iforest.New(cfg) }

// Testbed (§4).

// Tensor is the dense array type used throughout the library.
type Tensor = tensor.Tensor

// Dataset bundles normalised train/test series with collision ground truth.
type Dataset = robot.Dataset

// DatasetConfig describes dataset generation.
type DatasetConfig = robot.DatasetConfig

// SimConfig parameterises the robot simulator.
type SimConfig = robot.SimConfig

// ChannelInfo describes one stream variable (Table 1).
type ChannelInfo = robot.Channel

// NumChannels is the testbed stream width (86, as in Table 1).
const NumChannels = robot.NumChannels

// GenerateDataset produces a complete train/test experiment.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return robot.Generate(cfg) }

// SmallDatasetConfig returns the scaled-down experiment used by tests and
// quick examples.
func SmallDatasetConfig() DatasetConfig { return robot.SmallDataset() }

// PaperDatasetConfig returns the full §4.3 protocol (390 min training,
// 82 min test, 125 collisions).
func PaperDatasetConfig() DatasetConfig { return robot.PaperDataset() }

// Channels returns the 86-entry stream schema of Table 1.
func Channels() []ChannelInfo { return robot.Channels() }

// SelectChannels restricts a series to the given channel indices.
func SelectChannels(series *Tensor, idx []int) *Tensor { return robot.SelectChannels(series, idx) }

// InterestingChannels returns the compact channel subset used by the fast
// accuracy experiments.
func InterestingChannels() []int { return robot.InterestingChannels() }

// Evaluation (§4.3).

// AUCROC computes the threshold-free area under the ROC curve.
func AUCROC(scores []float64, labels []bool) float64 { return eval.AUCROC(scores, labels) }

// ROCPoint is one operating point of a ROC curve.
type ROCPoint = eval.ROCPoint

// ROCCurve returns all ROC operating points.
func ROCCurve(scores []float64, labels []bool) []ROCPoint { return eval.ROCCurve(scores, labels) }

// BestF1 sweeps thresholds and returns the best F1 and its threshold.
func BestF1(scores []float64, labels []bool) (f1, threshold float64) {
	return eval.BestF1(scores, labels)
}

// EventRecall returns the fraction of anomaly events with at least one
// point above the threshold.
func EventRecall(scores []float64, labels []bool, thr float64) float64 {
	return eval.EventRecall(scores, labels, thr)
}

// Edge boards (§4.3–4.4).

// Platform models one edge board.
type Platform = edge.Platform

// Workload is a detector's measured execution profile.
type Workload = edge.Workload

// BoardReport is one row of Table 2.
type BoardReport = edge.Report

// XavierNX returns the Jetson Xavier NX profile.
func XavierNX() Platform { return edge.XavierNX() }

// AGXOrin returns the Jetson AGX Orin profile.
func AGXOrin() Platform { return edge.AGXOrin() }

// Streaming runtime (Fig. 2).

// Runner couples a detector to a live sample feed.
type Runner = stream.Runner

// StreamScore is one runner output.
type StreamScore = stream.Score

// NewRunner returns a streaming runner for a fitted detector.
func NewRunner(d Detector, channels int) *Runner { return stream.NewRunner(d, channels) }

// Fleet serving (internal/serve): one server, many device sessions, each
// extending its own stream in one flush per tick shared by the sessions
// of a model.

// ModelRegistry stores named, versioned detectors on disk.
type ModelRegistry = serve.Registry

// FleetServer multiplexes device sessions over registered detectors.
type FleetServer = serve.Server

// FleetServerConfig parameterises a FleetServer.
type FleetServerConfig = serve.Config

// FleetMetrics is a point-in-time serving snapshot (sessions, scored/s,
// drops, coalesce-latency percentiles).
type FleetMetrics = serve.Metrics

// FleetClient is a device-side connection speaking the binary framing.
type FleetClient = serve.Client

// OpenRegistry opens (creating if needed) a model registry at dir.
func OpenRegistry(dir string) (*ModelRegistry, error) { return serve.OpenRegistry(dir) }

// NewFleetServer builds a fleet server; call Serve to start it.
func NewFleetServer(cfg FleetServerConfig) (*FleetServer, error) { return serve.NewServer(cfg) }

// DialFleet opens a protocol-v1 device session against a fleet server
// (no capability negotiation; the session is served at the model file's
// own precision).
func DialFleet(ctx context.Context, addr, model string, channels int) (*FleetClient, error) {
	return serve.Dial(ctx, addr, model, channels)
}

// SessionCaps is the per-session capability set negotiated by protocol
// v2: serving precision, score-frame cap, and admission drop policy.
type SessionCaps = stream.SessionCaps

// DialFleetWith opens a protocol-v2 device session, negotiating caps
// (e.g. SessionCaps{Precision: PrecisionInt8} asks the server to derive
// an int8 serving group from the registry entry). The grant is echoed in
// the client's Welcome.
func DialFleetWith(ctx context.Context, addr, model string, channels int, caps SessionCaps) (*FleetClient, error) {
	return serve.DialWith(ctx, addr, model, channels, caps)
}
