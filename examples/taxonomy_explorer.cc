// taxonomy_explorer: builds a replicated multilingual WordNet (the paper's
// §5.1 methodology), prints its structural statistics, and contrasts the
// three closure-computation strategies (pinned / seq-scan / B+Tree) with
// the interpreted outside-the-server UDF on the same roots.
//
//   $ ./build/examples/taxonomy_explorer

#include <cstdio>

#include "datagen/taxonomy_generator.h"
#include "engine/closure_exec.h"
#include "engine/database.h"
#include "engine/outside_server.h"
#include "session/session.h"

using namespace mural;

namespace {

Status Run() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());

  TaxonomyGenOptions options;
  options.seed = 7;
  options.base_synsets = 5000;
  options.languages = {lang::kEnglish, lang::kHindi, lang::kTamil};
  GeneratedTaxonomy generated = GenerateTaxonomy(options);
  const std::vector<SynsetId> bases = generated.base_synsets;

  const TaxonomyStats stats = generated.taxonomy->ComputeStats();
  std::printf("Replicated WordNet: %llu synsets, %llu IS-A edges, "
              "%llu equivalence links, %u languages\n",
              static_cast<unsigned long long>(stats.num_synsets),
              static_cast<unsigned long long>(stats.num_isa_edges),
              static_cast<unsigned long long>(stats.num_equiv_edges),
              stats.num_languages);
  std::printf("height h_T = %u, avg fanout f_T = %.2f\n\n", stats.height,
              stats.avg_fanout);

  const Taxonomy* tax = generated.taxonomy.get();
  // Sample roots with varied closure sizes.
  std::vector<SynsetId> sample(bases.begin(), bases.begin() + 400);
  std::vector<SynsetId> roots;
  for (size_t target : {10, 100, 400}) {
    auto found = FindRootsWithClosureSize(*tax, sample, target, 1);
    if (!found.empty()) roots.push_back(found[0]);
  }

  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(generated.taxonomy)));
  MURAL_RETURN_IF_ERROR(db->CreateTaxonomyIndexes());
  tax = db->taxonomy();
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());
  ExecContext* ctx = session->exec_context();

  std::printf("%-28s %10s %12s %12s %12s %14s\n", "root (closure size)",
              "pinned ms", "seqscan ms", "btree ms", "udf-seq ms",
              "udf-btree ms");
  for (SynsetId root : roots) {
    const Synset& s = tax->Get(root);
    double times[3] = {0, 0, 0};
    size_t size = 0;
    const ClosureStrategy strategies[] = {ClosureStrategy::kPinned,
                                          ClosureStrategy::kSeqScan,
                                          ClosureStrategy::kBTree};
    for (int i = 0; i < 3; ++i) {
      MURAL_ASSIGN_OR_RETURN(
          auto result,
          ComputeClosure(db.get(), s.lemma, s.lang, strategies[i]));
      times[i] = result.second.millis;
      size = result.second.closure_size;
    }
    MURAL_ASSIGN_OR_RETURN(auto udf_seq,
                           OutsideClosureSize(db.get(), ctx, s.lemma, s.lang,
                                              /*use_btree=*/false));
    MURAL_ASSIGN_OR_RETURN(auto udf_btree,
                           OutsideClosureSize(db.get(), ctx, s.lemma, s.lang,
                                              /*use_btree=*/true));
    char label[64];
    std::snprintf(label, sizeof(label), "%s (%zu)", s.lemma.c_str(), size);
    std::printf("%-28s %10.2f %12.2f %12.2f %12.2f %14.2f\n", label,
                times[0], times[1], times[2], udf_seq.second.millis,
                udf_btree.second.millis);
  }
  std::printf(
      "\nAll five strategies return identical closures; the spread in\n"
      "runtime is the Figure-8 story: native+index >> interpreted UDF.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "taxonomy_explorer failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
