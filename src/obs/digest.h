/**
 * @file
 * Result digests: a 64-bit FNV-1a fingerprint of a simulated outcome.
 *
 * A digest folds the bit pattern of every reported field of a fleet or
 * rack result — latency summaries, per-class outcomes, every timeline
 * bucket and class cell, per-core mode residencies and CPI-outlier
 * counts, the UIPC spreads and, for a rack, each node's own result and
 * the ingress counts — into one hex string. Two runs agree on the
 * digest exactly when they agree on those fields bit for bit, which is
 * what the determinism contract promises; `tests/test_golden_results.cc`
 * pins one digest per drill and preset so that any drift in the event
 * engine, dispatch, control loops or rack layer fails a test. Doubles
 * are hashed as raw bits, so a digest is stable only for one compiler
 * and libm (as the golden operating-point file is).
 */

#ifndef STRETCH_OBS_DIGEST_H
#define STRETCH_OBS_DIGEST_H

#include <string>

#include "sim/fleet.h"

namespace stretch::cluster
{
struct ClusterResult;
} // namespace stretch::cluster

namespace stretch::obs
{

/** Digest of a fleet result (see the file comment for the fields). */
std::string digestOf(const sim::FleetResult &r);

/** Digest of a rack run: the merged view, each node's result, the
 *  ingress counts and the makespan. */
std::string digestOf(const cluster::ClusterResult &r);

} // namespace stretch::obs

#endif // STRETCH_OBS_DIGEST_H
