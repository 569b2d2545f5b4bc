// analyzer-virtual-path: src/cluster/fixture_det_taint.cc
// The taint a line-by-line scan cannot see: the serialization loop runs
// over an innocent vector, but the vector was *populated* in
// unordered iteration order and never sorted.
namespace exist {

class ReportWriter {
 public:
  void serialize(net::ByteWriter &w) {
    std::vector<unsigned long> rows;
    for (const auto &kv : index_) {
      rows.push_back(kv.second);
    }
    for (unsigned long v : rows) {
      w.putU64(v);
    }
  }

 private:
  std::unordered_map<unsigned long, unsigned long> index_;
};

}  // namespace exist
