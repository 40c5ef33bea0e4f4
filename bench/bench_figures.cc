// The paper's figures (7, 9–13), the straggler decomposition, ablations
// A1–A3, chunking and unique orders, each printed from its row in
// harness/figures.cc with the paper's claim and its verdict.
//
//   bench_figures [--figure ID]...   (no arguments: every figure)
//
// Exits 1 if a claim fails that is not a declared known failure, 2 on
// bad arguments.
#include <iostream>
#include <stdexcept>

#include "harness/figures.h"

int main(int argc, char** argv) {
  using namespace tictac::harness;
  std::vector<Figure> figures;
  try {
    figures = SelectFigures({argv + 1, argv + argc});
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_figures: " << e.what()
              << "\nusage: bench_figures [--figure ID]...\n";
    return 2;
  }
  int status = 0;
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const Figure& figure = figures[i];
    Session session;  // a Runner cache per figure bounds memory
    const Measured measured = MeasureFigure(figure, session);
    const Verdict verdict = figure.check(measured.values);
    std::cout << (i == 0 ? "" : "\n") << measured.text
              << (verdict.detail.empty() ? "" : verdict.detail + "\n")
              << (verdict.holds ? "Claim holds: " : "Claim FAILS: ")
              << figure.claim << "\n";
    if (!verdict.holds && figure.known_failure.empty()) status = 1;
    if (!verdict.holds && !figure.known_failure.empty()) {
      std::cout << "Known failure: " << figure.known_failure << "\n";
    }
  }
  return status;
}
