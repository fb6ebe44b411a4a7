// Hopfield network with continuous (Hopfield–Tank) dynamics.
//
// The paper's 2-layer Hopfield benchmark is a TSP solver; the recurrent
// dynamics map onto DeepBurning's recurrent layer (synergy neurons +
// connection box).  This class provides the energy-descent reference used
// to build the TSP benchmark weights and to validate tours.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace db {

struct HopfieldTspParams {
  // Hopfield–Tank penalty coefficients: row constraint (A), column
  // constraint (B), global count (C), tour length objective (D).
  double a = 500.0;
  double b = 500.0;
  double c = 200.0;
  double d = 500.0;
  double gain = 50.0;       // sigmoid slope u0
  double dt = 1e-5;         // integration step
  int steps = 2000;         // settling iterations
};

/// Hopfield network over n*n "city at position" neurons for an n-city TSP
/// instance.  Weights are constructed analytically from the distance
/// matrix (no training; the paper loads pre-determined weights the same
/// way).
class HopfieldTsp {
 public:
  /// `distances` is a symmetric n x n matrix.
  HopfieldTsp(const std::vector<std::vector<double>>& distances,
              HopfieldTspParams params);

  /// Reset the neuron potentials to small random perturbations.
  void Reset(Rng& rng);

  /// Run one Euler step of the continuous dynamics; returns the network
  /// energy after the step.
  double Step();

  /// Run `params.steps` iterations from a fresh random state.
  void Settle(Rng& rng);

  /// Current activations as an n x n tensor (city i at tour position j).
  Tensor Activations() const;

  /// Decode a tour (city index per position) from the activation matrix
  /// by greedy row-unique argmax.  The tour is always a permutation.
  std::vector<int> DecodeTour() const;

  /// Energy of the current state (monotonically non-increasing in the
  /// ideal continuous limit; property tests check the trend).
  double Energy() const;

  /// Tour length under the instance's distance matrix.
  double TourLength(const std::vector<int>& tour) const;

  /// The effective synaptic weight between neuron (x,i) and (y,j); public
  /// so the benchmark can install the same weights into a recurrent-layer
  /// WeightStore for accelerator generation.
  double Weight(int x, int i, int y, int j) const;

  /// External bias driving each neuron.
  double Bias() const;

 private:
  int Index(int city, int pos) const { return city * n_ + pos; }

  int n_;
  HopfieldTspParams params_;
  std::vector<std::vector<double>> dist_;
  std::vector<double> u_;  // potentials
  std::vector<double> v_;  // activations = sigmoid(u / u0)
};

}  // namespace db
