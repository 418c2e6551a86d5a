#include "tpch/reference_kernels.h"

#include <unordered_map>
#include <unordered_set>

#include "tpch/schema.h"

namespace anker::tpch {

using engine::ColumnReader;
using engine::ScanBlock;
using engine::ScanDriver;
using storage::DecodeDate;
using storage::DecodeDict;
using storage::DecodeDouble;
using storage::DecodeInt64;

std::vector<storage::Column*> ReferenceKernels::ColumnsFor(OlapKind kind) const {
  storage::Table* li = instance_.lineitem;
  storage::Table* orders = instance_.orders;
  storage::Table* part = instance_.part;
  switch (kind) {
    case OlapKind::kQ1:
      return {li->GetColumn("l_shipdate"),     li->GetColumn("l_returnflag"),
              li->GetColumn("l_linestatus"),   li->GetColumn("l_quantity"),
              li->GetColumn("l_extendedprice"), li->GetColumn("l_discount"),
              li->GetColumn("l_tax")};
    case OlapKind::kQ4:
      return {orders->GetColumn("o_orderdate"),
              orders->GetColumn("o_orderpriority")};
    case OlapKind::kQ6:
      return {li->GetColumn("l_shipdate"), li->GetColumn("l_discount"),
              li->GetColumn("l_quantity"),
              li->GetColumn("l_extendedprice")};
    case OlapKind::kQ17:
      return {part->GetColumn("p_partkey"), part->GetColumn("p_brand"),
              part->GetColumn("p_container"), li->GetColumn("l_partkey"),
              li->GetColumn("l_quantity"),
              li->GetColumn("l_extendedprice")};
    case OlapKind::kScanLineitem:
      return {li->GetColumn("l_extendedprice")};
    case OlapKind::kScanOrders:
      return {orders->GetColumn("o_totalprice")};
    case OlapKind::kScanPart:
      return {part->GetColumn("p_retailprice")};
  }
  return {};
}

OlapResult ReferenceKernels::Run(OlapKind kind, const engine::OlapContext& ctx,
                            const OlapParams& params) const {
  switch (kind) {
    case OlapKind::kQ1:
      return RunQ1(ctx, params);
    case OlapKind::kQ4:
      return RunQ4(ctx, params);
    case OlapKind::kQ6:
      return RunQ6(ctx, params);
    case OlapKind::kQ17:
      return RunQ17(ctx, params);
    case OlapKind::kScanLineitem:
      return RunScan(ctx, instance_.lineitem, "l_extendedprice");
    case OlapKind::kScanOrders:
      return RunScan(ctx, instance_.orders, "o_totalprice");
    case OlapKind::kScanPart:
      return RunScan(ctx, instance_.part, "p_retailprice");
  }
  return OlapResult{};
}

// ---- Q1: pricing summary report ------------------------------------------
// select l_returnflag, l_linestatus, sum(qty), sum(extprice),
//        sum(extprice*(1-disc)), sum(extprice*(1-disc)*(1+tax)),
//        avg(qty), avg(extprice), avg(disc), count(*)
// from lineitem where l_shipdate <= '1998-12-01' - delta group by 1, 2.
OlapResult ReferenceKernels::RunQ1(const engine::OlapContext& ctx,
                              const OlapParams& params) const {
  storage::Table* li = instance_.lineitem;
  const ColumnReader shipdate = ctx.Reader(li->GetColumn("l_shipdate"));
  const ColumnReader retflag = ctx.Reader(li->GetColumn("l_returnflag"));
  const ColumnReader status = ctx.Reader(li->GetColumn("l_linestatus"));
  const ColumnReader quantity = ctx.Reader(li->GetColumn("l_quantity"));
  const ColumnReader extprice = ctx.Reader(li->GetColumn("l_extendedprice"));
  const ColumnReader discount = ctx.Reader(li->GetColumn("l_discount"));
  const ColumnReader tax = ctx.Reader(li->GetColumn("l_tax"));

  const int64_t cutoff = kShipDateMaxDays - params.q1_delta_days;

  // Group-by over (returnflag, linestatus): both domains are tiny dict
  // codes, so a fixed 8x8 accumulator array replaces a hash table.
  struct Group {
    double sum_qty = 0, sum_base = 0, sum_disc = 0, sum_charge = 0,
           sum_discount = 0;
    uint64_t count = 0;
  };
  struct Acc {
    Group groups[64];
    uint64_t rows = 0;
  };

  ScanDriver driver({&shipdate, &retflag, &status, &quantity, &extprice,
                     &discount, &tax});
  OlapResult result;
  Acc total{};
  driver.FoldBlockwise<Acc>(
      &total,
      [&](Acc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        acc.rows += block.rows;
        for (size_t r = 0; r < block.rows; ++r) {
          if (DecodeDate(c[0][r]) > cutoff) continue;
          const uint32_t flag = DecodeDict(c[1][r]) & 7;
          const uint32_t ls = DecodeDict(c[2][r]) & 7;
          Group& g = acc.groups[flag * 8 + ls];
          const double qty = DecodeDouble(c[3][r]);
          const double price = DecodeDouble(c[4][r]);
          const double disc = DecodeDouble(c[5][r]);
          const double tx = DecodeDouble(c[6][r]);
          g.sum_qty += qty;
          g.sum_base += price;
          g.sum_disc += price * (1.0 - disc);
          g.sum_charge += price * (1.0 - disc) * (1.0 + tx);
          g.sum_discount += disc;
          ++g.count;
        }
      },
      [](Acc& into, Acc&& from) {
        into.rows += from.rows;
        for (int i = 0; i < 64; ++i) {
          into.groups[i].sum_qty += from.groups[i].sum_qty;
          into.groups[i].sum_base += from.groups[i].sum_base;
          into.groups[i].sum_disc += from.groups[i].sum_disc;
          into.groups[i].sum_charge += from.groups[i].sum_charge;
          into.groups[i].sum_discount += from.groups[i].sum_discount;
          into.groups[i].count += from.groups[i].count;
        }
      },
      &result.scan, ctx.scan_options());

  result.rows_considered = total.rows;
  for (const Group& g : total.groups) {
    result.digest += g.sum_qty + g.sum_base + g.sum_disc + g.sum_charge +
                     static_cast<double>(g.count);
  }
  return result;
}

// ---- Q4 (single-table form, per the paper): order priority checking ------
// select o_orderpriority, count(*) from orders
// where o_orderdate in [d, d + 92 days) group by o_orderpriority.
OlapResult ReferenceKernels::RunQ4(const engine::OlapContext& ctx,
                              const OlapParams& params) const {
  storage::Table* orders = instance_.orders;
  const ColumnReader orderdate = ctx.Reader(orders->GetColumn("o_orderdate"));
  const ColumnReader priority =
      ctx.Reader(orders->GetColumn("o_orderpriority"));

  const int64_t lo = params.q4_start_day;
  const int64_t hi = params.q4_start_day + 92;

  struct Acc {
    uint64_t counts[16] = {0};
    uint64_t rows = 0;
  };
  ScanDriver driver({&orderdate, &priority});
  OlapResult result;
  Acc total{};
  driver.FoldBlockwise<Acc>(
      &total,
      [&](Acc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        acc.rows += block.rows;
        for (size_t r = 0; r < block.rows; ++r) {
          const int64_t date = DecodeDate(c[0][r]);
          if (date < lo || date >= hi) continue;
          ++acc.counts[DecodeDict(c[1][r]) & 15];
        }
      },
      [](Acc& into, Acc&& from) {
        into.rows += from.rows;
        for (int i = 0; i < 16; ++i) into.counts[i] += from.counts[i];
      },
      &result.scan, ctx.scan_options());

  result.rows_considered = total.rows;
  for (uint64_t count : total.counts) {
    result.digest += static_cast<double>(count);
  }
  return result;
}

// ---- Q6: forecasting revenue change ---------------------------------------
// select sum(l_extendedprice * l_discount) from lineitem
// where l_shipdate in [d, d+1y), l_discount in [x-0.01, x+0.01],
//       l_quantity < q.
OlapResult ReferenceKernels::RunQ6(const engine::OlapContext& ctx,
                              const OlapParams& params) const {
  storage::Table* li = instance_.lineitem;
  const ColumnReader shipdate = ctx.Reader(li->GetColumn("l_shipdate"));
  const ColumnReader discount = ctx.Reader(li->GetColumn("l_discount"));
  const ColumnReader quantity = ctx.Reader(li->GetColumn("l_quantity"));
  const ColumnReader extprice = ctx.Reader(li->GetColumn("l_extendedprice"));

  const int64_t lo = params.q6_start_day;
  const int64_t hi = params.q6_start_day + 365;
  const double disc_lo = params.q6_discount - 0.01001;
  const double disc_hi = params.q6_discount + 0.01001;

  struct Acc {
    double revenue = 0;
    uint64_t rows = 0;
  };
  ScanDriver driver({&shipdate, &discount, &quantity, &extprice});
  OlapResult result;
  Acc total{};
  driver.FoldBlockwise<Acc>(
      &total,
      [&](Acc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        acc.rows += block.rows;
        for (size_t r = 0; r < block.rows; ++r) {
          const int64_t date = DecodeDate(c[0][r]);
          if (date < lo || date >= hi) continue;
          const double disc = DecodeDouble(c[1][r]);
          if (disc < disc_lo || disc > disc_hi) continue;
          if (DecodeDouble(c[2][r]) >= params.q6_quantity) continue;
          acc.revenue += DecodeDouble(c[3][r]) * disc;
        }
      },
      [](Acc& into, Acc&& from) {
        into.revenue += from.revenue;
        into.rows += from.rows;
      },
      &result.scan, ctx.scan_options());

  result.digest = total.revenue;
  result.rows_considered = total.rows;
  return result;
}

// ---- Q17: small-quantity-order revenue ------------------------------------
// select sum(l_extendedprice) / 7.0 from lineitem, part
// where p_partkey = l_partkey and p_brand = B and p_container = C
//   and l_quantity < 0.2 * avg(l_quantity over same part).
OlapResult ReferenceKernels::RunQ17(const engine::OlapContext& ctx,
                               const OlapParams& params) const {
  storage::Table* part = instance_.part;
  storage::Table* li = instance_.lineitem;
  const ColumnReader partkey = ctx.Reader(part->GetColumn("p_partkey"));
  const ColumnReader brand = ctx.Reader(part->GetColumn("p_brand"));
  const ColumnReader container = ctx.Reader(part->GetColumn("p_container"));
  const ColumnReader l_partkey = ctx.Reader(li->GetColumn("l_partkey"));
  const ColumnReader l_quantity = ctx.Reader(li->GetColumn("l_quantity"));
  const ColumnReader l_extprice =
      ctx.Reader(li->GetColumn("l_extendedprice"));

  // Build side: qualifying part keys.
  struct PartAcc {
    std::unordered_set<int64_t> keys;
  };
  ScanDriver part_driver({&partkey, &brand, &container});
  PartAcc qualifying{};
  part_driver.FoldBlockwise<PartAcc>(
      &qualifying,
      [&](PartAcc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        for (size_t r = 0; r < block.rows; ++r) {
          if (DecodeDict(c[1][r]) != params.q17_brand_code) continue;
          if (DecodeDict(c[2][r]) != params.q17_container_code) continue;
          acc.keys.insert(DecodeInt64(c[0][r]));
        }
      },
      [](PartAcc& into, PartAcc&& from) {
        into.keys.merge(from.keys);
      },
      nullptr, ctx.scan_options());

  // Probe pass 1: per-part quantity average over qualifying keys.
  struct QtyStats {
    double sum = 0;
    uint64_t count = 0;
  };
  struct Pass1Acc {
    std::unordered_map<int64_t, QtyStats> stats;
  };
  ScanDriver li_driver({&l_partkey, &l_quantity, &l_extprice});
  Pass1Acc per_part{};
  li_driver.FoldBlockwise<Pass1Acc>(
      &per_part,
      [&](Pass1Acc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        for (size_t r = 0; r < block.rows; ++r) {
          const int64_t key = DecodeInt64(c[0][r]);
          if (qualifying.keys.count(key) == 0) continue;
          QtyStats& stats = acc.stats[key];
          stats.sum += DecodeDouble(c[1][r]);
          ++stats.count;
        }
      },
      [](Pass1Acc& into, Pass1Acc&& from) {
        for (auto& [key, stats] : from.stats) {
          QtyStats& s = into.stats[key];
          s.sum += stats.sum;
          s.count += stats.count;
        }
      },
      nullptr, ctx.scan_options());

  // Probe pass 2: revenue of small-quantity lineitems.
  struct Pass2Acc {
    double revenue = 0;
    uint64_t rows = 0;
  };
  Pass2Acc total{};
  li_driver.FoldBlockwise<Pass2Acc>(
      &total,
      [&](Pass2Acc& acc, const ScanBlock& block) {
        const uint64_t* const* c = block.cols;
        acc.rows += block.rows;
        for (size_t r = 0; r < block.rows; ++r) {
          const int64_t key = DecodeInt64(c[0][r]);
          auto it = per_part.stats.find(key);
          if (it == per_part.stats.end() || it->second.count == 0) continue;
          const double avg_qty =
              it->second.sum / static_cast<double>(it->second.count);
          if (DecodeDouble(c[1][r]) < 0.2 * avg_qty) {
            acc.revenue += DecodeDouble(c[2][r]);
          }
        }
      },
      [](Pass2Acc& into, Pass2Acc&& from) {
        into.revenue += from.revenue;
        into.rows += from.rows;
      },
      nullptr, ctx.scan_options());

  OlapResult result;
  result.digest = total.revenue / 7.0;
  result.rows_considered = total.rows;
  return result;
}

OlapResult ReferenceKernels::RunScan(const engine::OlapContext& ctx,
                                storage::Table* table,
                                const std::string& column_name) const {
  const ColumnReader reader = ctx.Reader(table->GetColumn(column_name));
  OlapResult result;
  result.digest = engine::ScanColumnSum(reader, /*as_double=*/true,
                                        &result.scan, ctx.scan_options());
  result.rows_considered = reader.num_rows();
  return result;
}

}  // namespace anker::tpch
