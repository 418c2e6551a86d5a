// The TPC-H 22 differential suite: every query of tpch::Tpch22 runs
// declaratively end-to-end and its result is checked against an
// independently computed reference (hand-rolled row loops over a plain
// extraction of the generated data), across mode×backend configs on
// clean data; on versioned data (after identical OLTP commits) the
// configs are differentially checked against each other. The wire path
// (Encode → Decode → CompileWireQuery) must reproduce the in-process
// digests bit-identically.
#include "tpch/queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "query/dag.h"
#include "query/serialize.h"
#include "storage/value.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

namespace anker::tpch {
namespace {

using query::QueryResult;

constexpr size_t kRows = 12000;
constexpr uint64_t kSeed = 7;

engine::DatabaseConfig ConfigFor(txn::ProcessingMode mode,
                                 snapshot::BufferBackend backend) {
  engine::DatabaseConfig config = engine::DatabaseConfig::ForMode(mode);
  config.backend = backend;
  return config;
}

/// The mode×backend grid the suite sweeps (4 configs). Homogeneous modes
/// require plain memory; heterogeneous pairs with the snapshot-capable
/// backends.
std::vector<engine::DatabaseConfig> Grid() {
  return {
      ConfigFor(txn::ProcessingMode::kHomogeneousSerializable,
                snapshot::BufferBackend::kPlain),
      ConfigFor(txn::ProcessingMode::kHomogeneousSnapshotIsolation,
                snapshot::BufferBackend::kPlain),
      ConfigFor(txn::ProcessingMode::kHeterogeneousSerializable,
                snapshot::BufferBackend::kVmSnapshot),
      ConfigFor(txn::ProcessingMode::kHeterogeneousSerializable,
                snapshot::BufferBackend::kPhysical),
  };
}

// ---------------------------------------------------------------------------
// Plain extraction of the generated instance (the reference's input).
// ---------------------------------------------------------------------------

struct Data {
  // lineitem
  std::vector<int64_t> l_orderkey, l_partkey, l_suppkey, l_shipyear;
  std::vector<double> l_quantity, l_extendedprice, l_discount, l_tax;
  std::vector<int64_t> l_shipdate, l_commitdate, l_receiptdate;
  std::vector<uint32_t> l_returnflag, l_linestatus, l_shipmode,
      l_shipinstruct;
  // orders
  std::vector<int64_t> o_orderkey, o_custkey, o_shippriority, o_orderyear,
      o_comment_class;
  std::vector<uint32_t> o_orderstatus, o_orderpriority;
  std::vector<double> o_totalprice;
  std::vector<int64_t> o_orderdate;
  // part
  std::vector<int64_t> p_partkey, p_size, p_is_promo;
  std::vector<uint32_t> p_brand, p_container, p_type, p_name_color;
  std::vector<double> p_retailprice;
  // customer
  std::vector<int64_t> c_custkey, c_nationkey, c_phone_cc;
  std::vector<uint32_t> c_mktsegment;
  std::vector<double> c_acctbal;
  // supplier
  std::vector<int64_t> s_suppkey, s_nationkey, s_is_complaint;
  std::vector<double> s_acctbal;
  // partsupp
  std::vector<int64_t> ps_partkey, ps_suppkey;
  std::vector<double> ps_availqty, ps_supplycost;
  // nation / region
  std::vector<int64_t> n_nationkey, n_regionkey;
  std::vector<uint32_t> n_name;
  std::vector<int64_t> r_regionkey;
  std::vector<uint32_t> r_name;

  // Dictionary code lookups (resolved once per instance).
  uint32_t code_R = 0, code_AIR = 0, code_REG_AIR = 0, code_DELIVER = 0,
           code_F_status = 0;
};

int64_t I(storage::Column* c, size_t r) {
  return storage::DecodeInt64(c->ReadLatestRaw(r));
}
double D(storage::Column* c, size_t r) {
  return storage::DecodeDouble(c->ReadLatestRaw(r));
}
int64_t Dt(storage::Column* c, size_t r) {
  return storage::DecodeDate(c->ReadLatestRaw(r));
}
uint32_t Dc(storage::Column* c, size_t r) {
  return storage::DecodeDict(c->ReadLatestRaw(r));
}

uint32_t MustCode(storage::Table* t, const char* col, const char* value) {
  auto code = t->GetDictionary(col)->Lookup(value);
  EXPECT_TRUE(code.ok()) << col << " " << value;
  return code.ok() ? code.value() : 0;
}

Data Extract(const TpchInstance& inst) {
  Data d;
  storage::Table* li = inst.lineitem;
  for (size_t r = 0; r < inst.lineitem_rows; ++r) {
    d.l_orderkey.push_back(I(li->GetColumn("l_orderkey"), r));
    d.l_partkey.push_back(I(li->GetColumn("l_partkey"), r));
    d.l_suppkey.push_back(I(li->GetColumn("l_suppkey"), r));
    d.l_shipyear.push_back(I(li->GetColumn("l_shipyear"), r));
    d.l_quantity.push_back(D(li->GetColumn("l_quantity"), r));
    d.l_extendedprice.push_back(D(li->GetColumn("l_extendedprice"), r));
    d.l_discount.push_back(D(li->GetColumn("l_discount"), r));
    d.l_tax.push_back(D(li->GetColumn("l_tax"), r));
    d.l_shipdate.push_back(Dt(li->GetColumn("l_shipdate"), r));
    d.l_commitdate.push_back(Dt(li->GetColumn("l_commitdate"), r));
    d.l_receiptdate.push_back(Dt(li->GetColumn("l_receiptdate"), r));
    d.l_returnflag.push_back(Dc(li->GetColumn("l_returnflag"), r));
    d.l_linestatus.push_back(Dc(li->GetColumn("l_linestatus"), r));
    d.l_shipmode.push_back(Dc(li->GetColumn("l_shipmode"), r));
    d.l_shipinstruct.push_back(Dc(li->GetColumn("l_shipinstruct"), r));
  }
  storage::Table* ord = inst.orders;
  for (size_t r = 0; r < inst.orders_rows; ++r) {
    d.o_orderkey.push_back(I(ord->GetColumn("o_orderkey"), r));
    d.o_custkey.push_back(I(ord->GetColumn("o_custkey"), r));
    d.o_shippriority.push_back(I(ord->GetColumn("o_shippriority"), r));
    d.o_orderyear.push_back(I(ord->GetColumn("o_orderyear"), r));
    d.o_comment_class.push_back(I(ord->GetColumn("o_comment_class"), r));
    d.o_orderstatus.push_back(Dc(ord->GetColumn("o_orderstatus"), r));
    d.o_orderpriority.push_back(Dc(ord->GetColumn("o_orderpriority"), r));
    d.o_totalprice.push_back(D(ord->GetColumn("o_totalprice"), r));
    d.o_orderdate.push_back(Dt(ord->GetColumn("o_orderdate"), r));
  }
  storage::Table* part = inst.part;
  for (size_t r = 0; r < inst.part_rows; ++r) {
    d.p_partkey.push_back(I(part->GetColumn("p_partkey"), r));
    d.p_size.push_back(I(part->GetColumn("p_size"), r));
    d.p_is_promo.push_back(I(part->GetColumn("p_is_promo"), r));
    d.p_brand.push_back(Dc(part->GetColumn("p_brand"), r));
    d.p_container.push_back(Dc(part->GetColumn("p_container"), r));
    d.p_type.push_back(Dc(part->GetColumn("p_type"), r));
    d.p_name_color.push_back(Dc(part->GetColumn("p_name_color"), r));
    d.p_retailprice.push_back(D(part->GetColumn("p_retailprice"), r));
  }
  storage::Table* cust = inst.customer;
  for (size_t r = 0; r < inst.customer_rows; ++r) {
    d.c_custkey.push_back(I(cust->GetColumn("c_custkey"), r));
    d.c_nationkey.push_back(I(cust->GetColumn("c_nationkey"), r));
    d.c_phone_cc.push_back(I(cust->GetColumn("c_phone_cc"), r));
    d.c_mktsegment.push_back(Dc(cust->GetColumn("c_mktsegment"), r));
    d.c_acctbal.push_back(D(cust->GetColumn("c_acctbal"), r));
  }
  storage::Table* supp = inst.supplier;
  for (size_t r = 0; r < inst.supplier_rows; ++r) {
    d.s_suppkey.push_back(I(supp->GetColumn("s_suppkey"), r));
    d.s_nationkey.push_back(I(supp->GetColumn("s_nationkey"), r));
    d.s_is_complaint.push_back(I(supp->GetColumn("s_is_complaint"), r));
    d.s_acctbal.push_back(D(supp->GetColumn("s_acctbal"), r));
  }
  storage::Table* ps = inst.partsupp;
  for (size_t r = 0; r < inst.partsupp_rows; ++r) {
    d.ps_partkey.push_back(I(ps->GetColumn("ps_partkey"), r));
    d.ps_suppkey.push_back(I(ps->GetColumn("ps_suppkey"), r));
    d.ps_availqty.push_back(D(ps->GetColumn("ps_availqty"), r));
    d.ps_supplycost.push_back(D(ps->GetColumn("ps_supplycost"), r));
  }
  for (size_t r = 0; r < inst.nation->num_rows(); ++r) {
    d.n_nationkey.push_back(I(inst.nation->GetColumn("n_nationkey"), r));
    d.n_regionkey.push_back(I(inst.nation->GetColumn("n_regionkey"), r));
    d.n_name.push_back(Dc(inst.nation->GetColumn("n_name"), r));
  }
  for (size_t r = 0; r < inst.region->num_rows(); ++r) {
    d.r_regionkey.push_back(I(inst.region->GetColumn("r_regionkey"), r));
    d.r_name.push_back(Dc(inst.region->GetColumn("r_name"), r));
  }
  d.code_R = MustCode(li, "l_returnflag", "R");
  d.code_AIR = MustCode(li, "l_shipmode", "AIR");
  d.code_REG_AIR = MustCode(li, "l_shipmode", "REG AIR");
  d.code_DELIVER = MustCode(li, "l_shipinstruct", "DELIVER IN PERSON");
  d.code_F_status = MustCode(ord, "o_orderstatus", "F");
  return d;
}

// ---------------------------------------------------------------------------
// Reference evaluation. RefRow mirrors the DAG result layout: integer-
// domain outputs in `keys` (schema order), doubles in `values`.
// ---------------------------------------------------------------------------

struct RefRow {
  std::vector<uint64_t> keys;
  std::vector<double> values;
};

double Rev(const Data& d, size_t i) {
  return d.l_extendedprice[i] * (1.0 - d.l_discount[i]);
}

uint32_t DictParam(storage::Table* t, const char* col, const char* value) {
  return MustCode(t, col, value);
}

/// The reference rows of query `q` under the fixed ParamsFor bindings.
std::vector<RefRow> Reference(int q, const Data& d,
                              const TpchInstance& inst) {
  std::vector<RefRow> out;
  switch (q) {
    case 1: {
      // keys (returnflag, linestatus) -> 6 sums.
      std::map<std::pair<uint32_t, uint32_t>, std::array<double, 6>> g;
      std::map<std::pair<uint32_t, uint32_t>, int64_t> n;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] > kShipDateMaxDays - 90) continue;
        auto key = std::make_pair(d.l_returnflag[i], d.l_linestatus[i]);
        auto& a = g[key];
        a[0] += d.l_quantity[i];
        a[1] += d.l_extendedprice[i];
        a[2] += Rev(d, i);
        a[3] += Rev(d, i) * (1.0 + d.l_tax[i]);
        n[key] += 1;
      }
      for (const auto& [key, a] : g) {
        RefRow row;
        row.keys = {key.first, key.second};
        row.values = {a[0], a[1], a[2], a[3],
                      a[0] / static_cast<double>(n[key]),
                      static_cast<double>(n[key])};
        out.push_back(std::move(row));
      }
      break;
    }
    case 2: {
      const uint32_t region =
          DictParam(inst.region, "r_name", "EUROPE");
      // Per-part min supplycost over suppliers in the region.
      std::unordered_set<int64_t> region_nations;
      for (size_t i = 0; i < d.n_nationkey.size(); ++i) {
        if (d.r_name[d.n_regionkey[i]] == region) {
          region_nations.insert(d.n_nationkey[i]);
        }
      }
      std::unordered_map<int64_t, double> min_cost;
      for (size_t i = 0; i < d.ps_partkey.size(); ++i) {
        const int64_t nk = d.s_nationkey[d.ps_suppkey[i] - 1];
        if (region_nations.count(nk) == 0) continue;
        auto it = min_cost.find(d.ps_partkey[i]);
        if (it == min_cost.end() || d.ps_supplycost[i] < it->second) {
          min_cost[d.ps_partkey[i]] = d.ps_supplycost[i];
        }
      }
      double total = 0.0;
      int64_t count = 0;
      for (size_t i = 0; i < d.p_partkey.size(); ++i) {
        if (d.p_size[i] != 15) continue;
        auto it = min_cost.find(d.p_partkey[i]);
        if (it == min_cost.end()) continue;
        total += it->second;
        ++count;
      }
      // Global aggregates always emit one row — the identity row (all
      // zeros for sum/count) when nothing matched.
      out.push_back({{}, {total, static_cast<double>(count)}});
      break;
    }
    case 3: {
      const uint32_t segment =
          DictParam(inst.customer, "c_mktsegment", "BUILDING");
      std::unordered_set<int64_t> building;
      for (size_t i = 0; i < d.c_custkey.size(); ++i) {
        if (d.c_mktsegment[i] == segment) building.insert(d.c_custkey[i]);
      }
      std::unordered_map<int64_t, double> revenue;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] <= 1155) continue;
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        if (d.o_orderdate[o] >= 1155) continue;
        if (building.count(d.o_custkey[o]) == 0) continue;
        revenue[d.l_orderkey[i]] += Rev(d, i);
      }
      for (const auto& [orderkey, rev] : revenue) {
        out.push_back({{static_cast<uint64_t>(orderkey)}, {rev}});
      }
      // Schema [l_orderkey, revenue]; order by revenue desc, full-row tie.
      std::sort(out.begin(), out.end(),
                [](const RefRow& a, const RefRow& b) {
                  if (a.values[0] != b.values[0]) {
                    return a.values[0] > b.values[0];
                  }
                  return a.keys[0] < b.keys[0];
                });
      if (out.size() > 10) out.resize(10);
      break;
    }
    case 4: {
      std::unordered_map<int64_t, bool> late;  // orderkey -> any late line
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_commitdate[i] < d.l_receiptdate[i]) {
          late[d.l_orderkey[i]] = true;
        }
      }
      std::map<uint32_t, int64_t> counts;
      for (size_t i = 0; i < d.o_orderkey.size(); ++i) {
        if (d.o_orderdate[i] < 800 || d.o_orderdate[i] >= 892) continue;
        if (!late[d.o_orderkey[i]]) continue;
        counts[d.o_orderpriority[i]] += 1;
      }
      for (const auto& [prio, count] : counts) {
        out.push_back({{prio}, {static_cast<double>(count)}});
      }
      break;
    }
    case 5: {
      const uint32_t region = DictParam(inst.region, "r_name", "ASIA");
      std::unordered_set<int64_t> asia;
      for (size_t i = 0; i < d.n_nationkey.size(); ++i) {
        if (d.r_name[d.n_regionkey[i]] == region) {
          asia.insert(d.n_nationkey[i]);
        }
      }
      std::map<uint32_t, double> revenue;  // n_name code -> revenue
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        if (d.o_orderyear[o] != 1994) continue;
        const int64_t snation = d.s_nationkey[d.l_suppkey[i] - 1];
        const int64_t cnation = d.c_nationkey[d.o_custkey[o] - 1];
        if (snation != cnation) continue;
        if (asia.count(snation) == 0) continue;
        revenue[d.n_name[snation]] += Rev(d, i);
      }
      for (const auto& [name, rev] : revenue) {
        out.push_back({{name}, {rev}});
      }
      break;
    }
    case 6: {
      double revenue = 0.0;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] < 400 || d.l_shipdate[i] >= 765) continue;
        if (d.l_discount[i] < 0.05 - 0.01001 ||
            d.l_discount[i] > 0.05 + 0.01001) {
          continue;
        }
        if (d.l_quantity[i] >= 24.0) continue;
        revenue += d.l_extendedprice[i] * d.l_discount[i];
      }
      out.push_back({{}, {revenue}});
      break;
    }
    case 7: {
      std::map<std::tuple<int64_t, int64_t, int64_t>, double> revenue;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipyear[i] < 1995 || d.l_shipyear[i] > 1996) continue;
        const int64_t sn = d.s_nationkey[d.l_suppkey[i] - 1];
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        const int64_t cn = d.c_nationkey[d.o_custkey[o] - 1];
        if (!((sn == 6 && cn == 7) || (sn == 7 && cn == 6))) continue;
        revenue[{sn, cn, d.l_shipyear[i]}] += Rev(d, i);
      }
      for (const auto& [key, rev] : revenue) {
        out.push_back({{static_cast<uint64_t>(std::get<0>(key)),
                        static_cast<uint64_t>(std::get<1>(key)),
                        static_cast<uint64_t>(std::get<2>(key))},
                       {rev}});
      }
      break;
    }
    case 8: {
      const uint32_t region = DictParam(inst.region, "r_name", "AMERICA");
      std::unordered_set<int64_t> america;
      for (size_t i = 0; i < d.n_nationkey.size(); ++i) {
        if (d.r_name[d.n_regionkey[i]] == region) {
          america.insert(d.n_nationkey[i]);
        }
      }
      std::map<std::pair<int64_t, int64_t>, double> volume;
      std::map<int64_t, double> total;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.p_is_promo[d.l_partkey[i] - 1] != 1) continue;
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        if (d.o_orderyear[o] < 1995 || d.o_orderyear[o] > 1996) continue;
        const int64_t cn = d.c_nationkey[d.o_custkey[o] - 1];
        if (america.count(cn) == 0) continue;
        const int64_t sn = d.s_nationkey[d.l_suppkey[i] - 1];
        volume[{d.o_orderyear[o], sn}] += Rev(d, i);
        total[d.o_orderyear[o]] += Rev(d, i);
      }
      for (const auto& [key, vol] : volume) {
        if (key.second != 2) continue;  // q8_nation = BRAZIL.
        out.push_back({{static_cast<uint64_t>(key.first),
                        static_cast<uint64_t>(key.second)},
                       {vol, total[key.first]}});
      }
      break;
    }
    case 9: {
      const uint32_t color =
          DictParam(inst.part, "p_name_color", "green");
      // (ps_partkey, ps_suppkey) -> supplycost.
      std::unordered_map<int64_t, double> cost;
      for (size_t i = 0; i < d.ps_partkey.size(); ++i) {
        cost[d.ps_partkey[i] * (1 << 20) + d.ps_suppkey[i]] =
            d.ps_supplycost[i];
      }
      std::map<std::pair<int64_t, int64_t>, double> profit;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.p_name_color[d.l_partkey[i] - 1] != color) continue;
        auto it = cost.find(d.l_partkey[i] * (1 << 20) + d.l_suppkey[i]);
        if (it == cost.end()) {
          ADD_FAILURE() << "lineitem without matching partsupp row";
          continue;
        }
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        const int64_t sn = d.s_nationkey[d.l_suppkey[i] - 1];
        profit[{sn, d.o_orderyear[o]}] +=
            Rev(d, i) - it->second * d.l_quantity[i];
      }
      for (const auto& [key, value] : profit) {
        out.push_back({{static_cast<uint64_t>(key.first),
                        static_cast<uint64_t>(key.second)},
                       {value}});
      }
      break;
    }
    case 10: {
      std::unordered_map<int64_t, double> revenue;  // custkey
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_returnflag[i] != d.code_R) continue;
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        if (d.o_orderdate[o] < 800 || d.o_orderdate[o] >= 890) continue;
        revenue[d.o_custkey[o]] += Rev(d, i);
      }
      for (const auto& [custkey, rev] : revenue) {
        out.push_back({{static_cast<uint64_t>(custkey)}, {rev}});
      }
      std::sort(out.begin(), out.end(),
                [](const RefRow& a, const RefRow& b) {
                  if (a.values[0] != b.values[0]) {
                    return a.values[0] > b.values[0];
                  }
                  return a.keys[0] < b.keys[0];
                });
      if (out.size() > 20) out.resize(20);
      break;
    }
    case 11: {
      const uint32_t nation =
          DictParam(inst.nation, "n_name", "GERMANY");
      int64_t germany = -1;
      for (size_t i = 0; i < d.n_nationkey.size(); ++i) {
        if (d.n_name[i] == nation) germany = d.n_nationkey[i];
      }
      std::map<int64_t, double> value;  // partkey -> stock value
      double total = 0.0;
      for (size_t i = 0; i < d.ps_partkey.size(); ++i) {
        if (d.s_nationkey[d.ps_suppkey[i] - 1] != germany) continue;
        const double v = d.ps_supplycost[i] * d.ps_availqty[i];
        value[d.ps_partkey[i]] += v;
        total += v;
      }
      for (const auto& [partkey, v] : value) {
        if (v > 0.001 * total) {
          out.push_back(
              {{static_cast<uint64_t>(partkey)}, {v, total}});
        }
      }
      break;
    }
    case 12: {
      const uint32_t mail = MustCode(inst.lineitem, "l_shipmode", "MAIL");
      const uint32_t ship = MustCode(inst.lineitem, "l_shipmode", "SHIP");
      std::map<std::pair<uint32_t, uint32_t>, int64_t> counts;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipmode[i] != mail && d.l_shipmode[i] != ship) continue;
        if (!(d.l_commitdate[i] < d.l_receiptdate[i])) continue;
        if (!(d.l_shipdate[i] < d.l_commitdate[i])) continue;
        if (d.l_receiptdate[i] < 730 || d.l_receiptdate[i] >= 1095) {
          continue;
        }
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        counts[{d.l_shipmode[i], d.o_orderpriority[o]}] += 1;
      }
      for (const auto& [key, count] : counts) {
        out.push_back(
            {{key.first, key.second}, {static_cast<double>(count)}});
      }
      break;
    }
    case 13: {
      std::unordered_map<int64_t, int64_t> per_customer;
      for (size_t i = 0; i < d.c_custkey.size(); ++i) {
        per_customer[d.c_custkey[i]] = 0;
      }
      for (size_t i = 0; i < d.o_orderkey.size(); ++i) {
        if (d.o_comment_class[i] == 0) continue;
        per_customer[d.o_custkey[i]] += 1;
      }
      std::map<int64_t, int64_t> dist;  // c_count -> custdist
      for (const auto& [cust, count] : per_customer) dist[count] += 1;
      for (const auto& [count, custdist] : dist) {
        // Both outputs are double-typed in the result schema.
        out.push_back({{},
                       {static_cast<double>(count),
                        static_cast<double>(custdist)}});
      }
      break;
    }
    case 14: {
      std::map<int64_t, double> revenue;  // p_is_promo -> revenue
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] < 1000 || d.l_shipdate[i] >= 1030) continue;
        revenue[d.p_is_promo[d.l_partkey[i] - 1]] += Rev(d, i);
      }
      for (const auto& [promo, rev] : revenue) {
        out.push_back({{static_cast<uint64_t>(promo)}, {rev}});
      }
      break;
    }
    case 15: {
      std::map<int64_t, double> revenue;  // suppkey
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] < 1200 || d.l_shipdate[i] >= 1290) continue;
        revenue[d.l_suppkey[i]] += Rev(d, i);
      }
      double max_rev = 0.0;
      for (const auto& [supp, rev] : revenue) {
        max_rev = std::max(max_rev, rev);
      }
      for (const auto& [supp, rev] : revenue) {
        if (rev >= max_rev) {
          out.push_back(
              {{static_cast<uint64_t>(supp)}, {rev, max_rev}});
        }
      }
      break;
    }
    case 16: {
      const uint32_t brand = DictParam(inst.part, "p_brand", "Brand#45");
      std::map<std::tuple<uint32_t, uint32_t, int64_t>,
               std::unordered_set<int64_t>> supps;
      for (size_t i = 0; i < d.ps_partkey.size(); ++i) {
        const size_t p = static_cast<size_t>(d.ps_partkey[i]) - 1;
        if (d.p_brand[p] == brand) continue;
        if (d.p_size[p] < 1 || d.p_size[p] > 15) continue;
        if (d.s_is_complaint[d.ps_suppkey[i] - 1] == 1) continue;
        supps[{d.p_brand[p], d.p_type[p], d.p_size[p]}].insert(
            d.ps_suppkey[i]);
      }
      for (const auto& [key, set] : supps) {
        out.push_back({{std::get<0>(key), std::get<1>(key),
                        static_cast<uint64_t>(std::get<2>(key))},
                       {static_cast<double>(set.size())}});
      }
      // Order by supplier_cnt desc, then full row ascending
      // (schema: p_brand, p_type, p_size, supplier_cnt).
      std::sort(out.begin(), out.end(),
                [](const RefRow& a, const RefRow& b) {
                  if (a.values[0] != b.values[0]) {
                    return a.values[0] > b.values[0];
                  }
                  return a.keys < b.keys;
                });
      break;
    }
    case 17: {
      const uint32_t container =
          DictParam(inst.part, "p_container", "MED BOX");
      std::unordered_map<int64_t, std::pair<double, int64_t>> qty;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        auto& acc = qty[d.l_partkey[i]];
        acc.first += d.l_quantity[i];
        acc.second += 1;
      }
      double total = 0.0;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        const size_t p = static_cast<size_t>(d.l_partkey[i]) - 1;
        if (d.p_container[p] != container) continue;
        const auto& acc = qty[d.l_partkey[i]];
        const double avg = acc.first / static_cast<double>(acc.second);
        if (d.l_quantity[i] < 0.2 * avg) {
          total += d.l_extendedprice[i];
        }
      }
      out.push_back({{}, {total}});
      break;
    }
    case 18: {
      std::unordered_map<int64_t, double> sum_qty;  // orderkey
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        sum_qty[d.l_orderkey[i]] += d.l_quantity[i];
      }
      for (size_t i = 0; i < d.o_orderkey.size(); ++i) {
        auto it = sum_qty.find(d.o_orderkey[i]);
        if (it == sum_qty.end() || it->second <= 180.0) continue;
        // Schema: o_orderkey (key), o_totalprice, sum_qty (values).
        out.push_back({{static_cast<uint64_t>(d.o_orderkey[i])},
                       {d.o_totalprice[i], it->second}});
      }
      std::sort(out.begin(), out.end(),
                [](const RefRow& a, const RefRow& b) {
                  if (a.values[0] != b.values[0]) {
                    return a.values[0] > b.values[0];
                  }
                  return a.keys[0] < b.keys[0];
                });
      if (out.size() > 100) out.resize(100);
      break;
    }
    case 19: {
      const uint32_t b1 = DictParam(inst.part, "p_brand", "Brand#12");
      const uint32_t b2 = DictParam(inst.part, "p_brand", "Brand#23");
      const uint32_t b3 = DictParam(inst.part, "p_brand", "Brand#34");
      double revenue = 0.0;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipmode[i] != d.code_AIR &&
            d.l_shipmode[i] != d.code_REG_AIR) {
          continue;
        }
        if (d.l_shipinstruct[i] != d.code_DELIVER) continue;
        const size_t p = static_cast<size_t>(d.l_partkey[i]) - 1;
        const double q = d.l_quantity[i];
        const int64_t size = d.p_size[p];
        const bool match =
            (d.p_brand[p] == b1 && q >= 1.0 && q <= 11.0 && size >= 1 &&
             size <= 5) ||
            (d.p_brand[p] == b2 && q >= 10.0 && q <= 20.0 && size >= 1 &&
             size <= 10) ||
            (d.p_brand[p] == b3 && q >= 20.0 && q <= 30.0 && size >= 1 &&
             size <= 15);
        if (match) {
          revenue += Rev(d, i);
        }
      }
      out.push_back({{}, {revenue}});
      break;
    }
    case 20: {
      const uint32_t color =
          DictParam(inst.part, "p_name_color", "forest");
      const uint32_t nation = DictParam(inst.nation, "n_name", "CANADA");
      int64_t canada = -1;
      for (size_t i = 0; i < d.n_nationkey.size(); ++i) {
        if (d.n_name[i] == nation) canada = d.n_nationkey[i];
      }
      std::unordered_map<int64_t, double> shipped;  // (part,supp) packed
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (d.l_shipdate[i] < 730 || d.l_shipdate[i] >= 1095) continue;
        shipped[d.l_partkey[i] * (1 << 20) + d.l_suppkey[i]] +=
            d.l_quantity[i];
      }
      std::unordered_set<int64_t> excess;
      for (size_t i = 0; i < d.ps_partkey.size(); ++i) {
        if (d.p_name_color[d.ps_partkey[i] - 1] != color) continue;
        auto it =
            shipped.find(d.ps_partkey[i] * (1 << 20) + d.ps_suppkey[i]);
        if (it == shipped.end()) continue;
        if (d.ps_availqty[i] > 0.5 * it->second) {
          excess.insert(d.ps_suppkey[i]);
        }
      }
      int64_t count = 0;
      double bal = 0.0;
      for (size_t i = 0; i < d.s_suppkey.size(); ++i) {
        if (d.s_nationkey[i] != canada) continue;
        if (excess.count(d.s_suppkey[i]) == 0) continue;
        ++count;
        bal += d.s_acctbal[i];
      }
      out.push_back({{}, {static_cast<double>(count), bal}});
      break;
    }
    case 21: {
      // Per order: the set of suppliers, and of late suppliers.
      std::unordered_map<int64_t, std::unordered_set<int64_t>> all, late;
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        all[d.l_orderkey[i]].insert(d.l_suppkey[i]);
        if (d.l_receiptdate[i] > d.l_commitdate[i]) {
          late[d.l_orderkey[i]].insert(d.l_suppkey[i]);
        }
      }
      std::map<int64_t, int64_t> numwait;  // suppkey
      for (size_t i = 0; i < d.l_orderkey.size(); ++i) {
        if (!(d.l_receiptdate[i] > d.l_commitdate[i])) continue;
        const int64_t supp = d.l_suppkey[i];
        if (d.s_nationkey[supp - 1] != 20) continue;
        const size_t o = static_cast<size_t>(d.l_orderkey[i]) - 1;
        if (d.o_orderstatus[o] != d.code_F_status) continue;
        const auto& order_supps = all[d.l_orderkey[i]];
        bool other = false;
        for (const int64_t s : order_supps) {
          if (s != supp) {
            other = true;
            break;
          }
        }
        if (!other) continue;
        bool other_late = false;
        for (const int64_t s : late[d.l_orderkey[i]]) {
          if (s != supp) {
            other_late = true;
            break;
          }
        }
        if (other_late) continue;
        numwait[supp] += 1;
      }
      for (const auto& [supp, count] : numwait) {
        out.push_back({{static_cast<uint64_t>(supp)},
                       {static_cast<double>(count)}});
      }
      // Schema [l_suppkey, numwait]; order numwait desc, full row asc.
      std::sort(out.begin(), out.end(),
                [](const RefRow& a, const RefRow& b) {
                  if (a.values[0] != b.values[0]) {
                    return a.values[0] > b.values[0];
                  }
                  return a.keys[0] < b.keys[0];
                });
      if (out.size() > 100) out.resize(100);
      break;
    }
    case 22: {
      std::unordered_set<int64_t> has_orders;
      for (size_t i = 0; i < d.o_orderkey.size(); ++i) {
        has_orders.insert(d.o_custkey[i]);
      }
      // Candidates: positive balance, cc in [13,19], no orders.
      std::vector<size_t> candidates;
      double sum = 0.0;
      for (size_t i = 0; i < d.c_custkey.size(); ++i) {
        if (d.c_acctbal[i] <= 0.0) continue;
        if (d.c_phone_cc[i] < 13 || d.c_phone_cc[i] > 19) continue;
        if (has_orders.count(d.c_custkey[i]) != 0) continue;
        candidates.push_back(i);
        sum += d.c_acctbal[i];
      }
      const double avg =
          candidates.empty()
              ? 0.0
              : sum / static_cast<double>(candidates.size());
      std::map<int64_t, std::pair<int64_t, double>> g;  // cc -> (n, bal)
      for (const size_t i : candidates) {
        if (d.c_acctbal[i] <= avg) continue;
        auto& acc = g[d.c_phone_cc[i]];
        acc.first += 1;
        acc.second += d.c_acctbal[i];
      }
      for (const auto& [cc, acc] : g) {
        out.push_back({{static_cast<uint64_t>(cc)},
                       {static_cast<double>(acc.first), acc.second}});
      }
      break;
    }
    default:
      ADD_FAILURE() << "no reference for Q" << q;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

bool Near(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-8 * scale;
}

void ExpectRowsMatch(int q, const QueryResult& result,
                     std::vector<RefRow> ref, bool ordered) {
  ASSERT_EQ(result.rows.size(), ref.size()) << "Q" << q << " row count";
  std::vector<RefRow> got;
  for (const QueryResult::Row& row : result.rows) {
    got.push_back({row.keys, row.values});
  }
  if (!ordered) {
    auto canon = [](const RefRow& a, const RefRow& b) {
      if (a.keys != b.keys) return a.keys < b.keys;
      return a.values < b.values;  // Exact for key-less multi-row (Q13).
    };
    std::sort(got.begin(), got.end(), canon);
    std::sort(ref.begin(), ref.end(), canon);
  }
  for (size_t r = 0; r < ref.size(); ++r) {
    EXPECT_EQ(got[r].keys, ref[r].keys) << "Q" << q << " row " << r;
    ASSERT_EQ(got[r].values.size(), ref[r].values.size())
        << "Q" << q << " row " << r;
    for (size_t v = 0; v < ref[r].values.size(); ++v) {
      EXPECT_TRUE(Near(got[r].values[v], ref[r].values[v]))
          << "Q" << q << " row " << r << " value " << v << ": got "
          << got[r].values[v] << " want " << ref[r].values[v];
    }
  }
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<engine::Database> db;
  TpchInstance inst;
  std::unique_ptr<Tpch22> queries;
};

Instance MakeInstance(const engine::DatabaseConfig& config) {
  Instance in;
  in.db = std::make_unique<engine::Database>(config);
  TpchConfig tpch;
  tpch.lineitem_rows = kRows;
  tpch.seed = kSeed;
  auto loaded = LoadTpch(in.db.get(), tpch);
  EXPECT_TRUE(loaded.ok());
  in.inst = loaded.value();
  in.db->Start();
  in.queries = std::make_unique<Tpch22>(in.db.get());
  return in;
}

TEST(Tpch22Test, AllQueriesMatchReferenceAcrossConfigs) {
  // The reference input: extract once (every config loads the identical
  // deterministic instance).
  Instance first = MakeInstance(Grid()[0]);
  const Data data = Extract(first.inst);

  std::vector<std::vector<uint64_t>> digests(Grid().size());
  for (size_t c = 0; c < Grid().size(); ++c) {
    Instance in = c == 0 ? std::move(first) : MakeInstance(Grid()[c]);
    for (int q = 1; q <= Tpch22::kNumQueries; ++q) {
      auto result =
          in.db->Run(in.queries->Compiled(q), in.queries->ParamsFor(q));
      ASSERT_TRUE(result.ok())
          << "Q" << q << ": " << result.status().ToString();
      const bool ordered = in.queries->Ordered(q);
      if (c == 0) {
        std::vector<RefRow> ref = Reference(q, data, in.inst);
        // A query whose reference comes out empty proves nothing — the
        // fixed parameters must select real data at this scale.
        EXPECT_FALSE(ref.empty()) << "Q" << q << " reference is empty";
        ExpectRowsMatch(q, result.value(), std::move(ref), ordered);
      }
      digests[c].push_back(
          Tpch22::RawDigest(result.value(), ordered));
    }
    in.db->Stop();
  }
  // Same data, same queries: every config must produce bit-identical
  // digests.
  for (size_t c = 1; c < digests.size(); ++c) {
    EXPECT_EQ(digests[c], digests[0]) << "config " << c;
  }
}

TEST(Tpch22Test, WirePathReproducesInProcessDigests) {
  Instance in = MakeInstance(Grid()[2]);
  for (int q = 1; q <= Tpch22::kNumQueries; ++q) {
    // Encode -> decode -> recompile, exactly like anker_serve.
    std::string bytes;
    ASSERT_TRUE(query::EncodeWireQuery(in.queries->Wire(q), &bytes).ok())
        << "Q" << q;
    std::string_view view(bytes);
    query::WireQuery decoded;
    ASSERT_TRUE(query::DecodeWireQuery(&view, &decoded).ok()) << "Q" << q;
    ASSERT_TRUE(view.empty()) << "Q" << q;
    auto recompiled = query::CompileWireQuery(decoded, in.db->catalog());
    ASSERT_TRUE(recompiled.ok())
        << "Q" << q << ": " << recompiled.status().ToString();

    auto local =
        in.db->Run(in.queries->Compiled(q), in.queries->ParamsFor(q));
    auto wire = in.db->Run(recompiled.value(), in.queries->ParamsFor(q));
    ASSERT_TRUE(local.ok()) << "Q" << q;
    ASSERT_TRUE(wire.ok()) << "Q" << q;
    const bool ordered = in.queries->Ordered(q);
    EXPECT_EQ(Tpch22::RawDigest(local.value(), ordered),
              Tpch22::RawDigest(wire.value(), ordered))
        << "Q" << q;
  }
  in.db->Stop();
}

TEST(Tpch22Test, Q1RunsTheGroupedVectorizedLeaf) {
  // Q1's operand pattern (Avg(l_quantity) among its sums) is not in the
  // fused registry, so it runs the grouped vectorized aggregate.
  Instance in = MakeInstance(Grid()[0]);
  const query::DagLeaf& leaf = in.queries->Compiled(1).plan().dag->leaf;
  EXPECT_TRUE(leaf.present);
  EXPECT_TRUE(leaf.key.grouped());
  EXPECT_EQ(leaf.fused, nullptr);
  in.db->Stop();
}

TEST(Tpch22Test, VersionedDataStaysEquivalentAcrossConfigs) {
  // Apply the same committed writes in every config; the per-query
  // digests must still agree config-to-config (snapshot reads see the
  // same post-commit image everywhere).
  std::vector<std::vector<uint64_t>> digests(Grid().size());
  for (size_t c = 0; c < Grid().size(); ++c) {
    Instance in = MakeInstance(Grid()[c]);
    storage::Column* price = in.inst.lineitem->GetColumn("l_extendedprice");
    storage::Column* qty = in.inst.lineitem->GetColumn("l_quantity");
    for (int round = 0; round < 50; ++round) {
      auto txn = in.db->BeginOltp();
      const size_t row = static_cast<size_t>(round) * 97 % kRows;
      txn->Write(price, row, storage::EncodeDouble(1000.0 + round));
      txn->Write(qty, row, storage::EncodeDouble(5.0 + round % 40));
      ASSERT_TRUE(in.db->Commit(txn.get()).ok());
    }
    for (int q = 1; q <= Tpch22::kNumQueries; ++q) {
      auto result =
          in.db->Run(in.queries->Compiled(q), in.queries->ParamsFor(q));
      ASSERT_TRUE(result.ok())
          << "Q" << q << ": " << result.status().ToString();
      digests[c].push_back(
          Tpch22::RawDigest(result.value(), in.queries->Ordered(q)));
    }
    in.db->Stop();
  }
  for (size_t c = 1; c < digests.size(); ++c) {
    EXPECT_EQ(digests[c], digests[0]) << "config " << c;
  }
}

}  // namespace
}  // namespace anker::tpch
