// Corpus: logical scope classes registered as allowed across RPCs. DESIGN.md
// has a row for the first; the second has no row.
namespace cfs {

// cs-policy: allowed-across-rpc corpus.scope
void RegisterScope();

// cs-policy: allowed-across-rpc corpus.undoc
void RegisterUndocumented();

}  // namespace cfs
