#ifndef MANIRANK_MANIRANK_H_
#define MANIRANK_MANIRANK_H_

/// \file
/// Umbrella header for the MANI-Rank library: multi-attribute and
/// intersectional group fairness for consensus ranking (Cachel,
/// Rundensteiner & Harrison, ICDE 2022).
///
/// Quick tour:
///  - core/ranking.h, core/candidate_table.h   candidates, attributes, groups
///  - core/fairness_metrics.h                  FPR / ARP / IRP / MANI-Rank
///  - core/distance.h                          Kendall tau, PD loss, PoF
///  - core/precedence.h                        precedence matrix W
///  - core/aggregators.h, core/kemeny.h        Borda/Copeland/Schulze/Kemeny
///  - core/context.h                           shared ConsensusContext engine
///  - core/streaming.h                         streaming profile accumulator
///  - core/make_mr_fair.h                      the Make-MR-Fair repair loop
///  - core/fair_kemeny.h, core/fair_aggregators.h   the MFCR algorithms
///  - core/baselines.h, core/method_registry.h      study baselines A1..B4
///  - core/gate.h                              reader/writer context gate
///  - serve/context_manager.h, serve/protocol.h     multi-table serving layer
///  - serve/executor.h                         async TCP request pipeline
///  - mallows/mallows.h, mallows/modal_designer.h   synthetic ranking model
///  - data/snapshot.h                          table-shard snapshot format
///  - data/*.h                                 datasets and CSV I/O
///  - lp/*.h                                   the bundled LP/ILP engine

#include "core/aggregators.h"
#include "core/baselines.h"
#include "core/candidate_table.h"
#include "core/context.h"
#include "core/distance.h"
#include "core/fair_aggregators.h"
#include "core/fair_kemeny.h"
#include "core/extra_aggregators.h"
#include "core/fairness_metrics.h"
#include "core/kemeny.h"
#include "core/make_mr_fair.h"
#include "core/method_registry.h"
#include "core/precedence.h"
#include "core/profile.h"
#include "core/ranking.h"
#include "core/selection_metrics.h"
#include "core/streaming.h"
#include "core/types.h"
#include "data/csrankings_generator.h"
#include "data/csv.h"
#include "data/exam_generator.h"
#include "data/snapshot.h"
#include "data/synthetic.h"
#include "mallows/mallows.h"
#include "mallows/modal_designer.h"
#include "serve/context_manager.h"
#include "serve/executor.h"
#include "serve/protocol.h"

#endif  // MANIRANK_MANIRANK_H_
