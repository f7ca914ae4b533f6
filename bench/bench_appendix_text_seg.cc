// Appendix A: deployment issues on text and segmentation tasks.
//
// Paper findings reproduced here:
//  - NNLM embeddings for raw vs lower-cased text are drastically different,
//    yet sentiment accuracy is identical — per-layer drift that is NOT a
//    deployment bug (why validation needs accuracy + drift together).
//  - Segmentation is less sensitive to the preprocessing bugs than
//    classification (shape cues dominate color/contrast).
#include "bench/bench_util.h"
#include "src/convert/converter.h"
#include "src/core/pipelines.h"
#include "src/models/trained_models.h"
#include "src/tensor/tensor_stats.h"

namespace mlexray {
namespace {

int run() {
  bench::print_header("Appendix A — text case-folding & segmentation bugs",
                      "ML-EXray Appendix A");
  // --- NNLM case sensitivity ---
  Graph nnlm = trained_nnlm_checkpoint();
  auto texts = SynthImdb::make(StandardData::kTextTest, 9301);
  TextPipelineConfig folded;
  folded.max_len = StandardData::kTextMaxLen;
  TextPipelineConfig raw = folded;
  raw.case_fold = false;

  RefOpResolver ref;
  Model model(&nnlm, &ref);
  Session session(&model, Retention::kPreserveAll);
  int emb_node = node_id_by_name(nnlm, "embedding");
  double emb_drift = 0.0;
  int folded_correct = 0;
  int raw_correct = 0;
  for (const TextExample& t : texts) {
    session.set_input(0, encode_text(t.text, imdb_vocabulary(), folded));
    session.invoke();
    Tensor folded_emb = session.node_output(emb_node);
    int folded_pred = argmax(session.output(0));
    session.set_input(0, encode_text(t.text, imdb_vocabulary(), raw));
    session.invoke();
    emb_drift += normalized_rmse(session.node_output(emb_node), folded_emb);
    int raw_pred = argmax(session.output(0));
    folded_correct += folded_pred == t.label;
    raw_correct += raw_pred == t.label;
  }
  emb_drift /= static_cast<double>(texts.size());
  double folded_acc = static_cast<double>(folded_correct) / texts.size();
  double raw_acc = static_cast<double>(raw_correct) / texts.size();
  bench::print_table({"pipeline", "embedding drift (rMSE-hat)", "accuracy"},
                     {{"lower-cased (training)", "0.0000", bench::pct(folded_acc)},
                      {"raw text", format_float(emb_drift, 4), bench::pct(raw_acc)}});
  std::printf(
      "expected shape: large embedding drift, near-identical accuracy\n"
      "(paper Appendix A: NNLM on IMDB).\n");

  // --- MobileBert stand-in sanity ---
  Graph bert = trained_mobilebert_checkpoint();
  auto bert_examples = imdb_examples(texts, folded);
  std::printf("\nmobilebert_mini (token-mixer stand-in) accuracy: %s\n",
              bench::pct(evaluate_classifier(bert, ref, bert_examples)).c_str());

  // --- segmentation under preprocessing bugs ---
  ZooModel deeplab = trained_deeplab();
  Graph deployed = convert_for_inference(deeplab.model);
  auto scenes = SynthSeg::make(StandardData::kSegTest, 9401);
  BuiltinOpResolver opt;
  std::vector<std::vector<std::string>> rows;
  for (PreprocBug bug : {PreprocBug::kNone, PreprocBug::kWrongChannelOrder,
                         PreprocBug::kWrongNormalization}) {
    double miou = evaluate_deeplab_miou(deployed, opt, scenes,
                                        {deeplab.model.input_spec, bug});
    rows.push_back({preproc_bug_name(bug), bench::pct(miou)});
  }
  std::printf("\n");
  bench::print_table({"segmentation pipeline", "mIoU"}, rows);
  std::printf(
      "expected shape: preprocessing bugs hurt segmentation less than\n"
      "classification (paper Appendix A).\n");
  return 0;
}

}  // namespace
}  // namespace mlexray

int main() { return mlexray::run(); }
