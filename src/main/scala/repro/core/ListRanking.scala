package repro.core

import org.apache.spark.rdd.RDD
import repro.pregel.{Msg, PregelRuntime, PregelStats, StepStat, VertexContext}

/** Bidirectional list ranking (paper §IV-B, Fig. 11).
  *
  * Every unambiguous vertex keeps a pair of predecessor IDs, one per
  * sequencing direction, initialised to its two neighbours — or to its own
  * *flipped* ID (bit 62 set) where the path terminates (no neighbour on that
  * side, or an ambiguous neighbour). Pointer jumping: each round (2
  * supersteps) a vertex asks each live predecessor for *its* predecessor in
  * the same direction, doubling the covered distance; an entry becomes
  * flipped once the contig end is reached. A vertex halts when both entries
  * are flipped; the pair then names the two contig-end vertices and
  * min(strip(pair)) is the contig label.
  *
  * Cycles of ⟨1-1⟩ vertices never reach an end; the paper stops LR when the
  * active-vertex count stops decreasing and hands the remainder to the
  * simplified S-V algorithm. That test is unsound when one contig is much
  * longer than the rest (no vertex of a path of length ℓ halts before round
  * ~log₂(ℓ/2), so the count stagnates early); we use the sound variant: a
  * round that flips **zero** new pair entries while vertices remain active
  * can only mean cycles remain — on a path, distances 1..ℓ-1 to an end all
  * occur, so every round r flips the entries at distance (2^(r-1), 2^r].
  */
object ListRanking {

  /** init0/init1: the original per-side neighbour IDs (kept for the S-V
    * cycle fallback); p0/p1: the live predecessor pair.
    */
  final case class LrState(init0: Long, init1: Long, p0: Long, p1: Long)
      extends Serializable {
    def done: Boolean = Ids.isFlipped(p0) && Ids.isFlipped(p1)
    def label: Long   = math.min(Ids.strip(p0), Ids.strip(p1))
  }

  /** Messages: kind 0 = request (a = requester); kind 1 = response
    * (a = responder, b = the responder's predecessor away from the requester).
    */
  private def compute(ctx: VertexContext, id: Long, st: LrState, msgs: Seq[Msg]): LrState = {
    if (ctx.superstep % 2 == 0) {
      // Apply responses, then issue the next round's requests. The
      // aggregator counts entries newly flipped this round (cycle test).
      var p0 = st.p0
      var p1 = st.p1
      msgs.foreach { m =>
        if (m.kind == 1) {
          if (p0 == m.a) {
            if (!Ids.isFlipped(p0) && Ids.isFlipped(m.b)) ctx.aggValue += 1
            p0 = m.b
          } else if (p1 == m.a) {
            if (!Ids.isFlipped(p1) && Ids.isFlipped(m.b)) ctx.aggValue += 1
            p1 = m.b
          } else
            throw new IllegalStateException(
              s"list ranking: vertex $id got response from ${m.a} matching neither entry")
        }
      }
      if (!(Ids.isFlipped(p0) && Ids.isFlipped(p1))) {
        if (!Ids.isFlipped(p0)) ctx.send(p0, 0, id, 0L)
        if (!Ids.isFlipped(p1)) ctx.send(p1, 0, id, 0L)
        ctx.remainActive()
      }
      st.copy(p0 = p0, p1 = p1)
    } else {
      // Respond to requests with the predecessor away from the requester.
      msgs.foreach { m =>
        if (m.kind == 0) {
          val x = m.a
          val away =
            if (st.p0 == x || st.p0 == Ids.flip(x)) st.p1
            else if (st.p1 == x || st.p1 == Ids.flip(x)) st.p0
            else throw new IllegalStateException(
              s"list ranking: vertex $id got request from $x matching neither entry")
          ctx.send(x, 1, id, away)
        }
      }
      st
    }
  }

  final case class LrResult(
      labels: RDD[(Long, Long)],          // finished vertices: id -> contig label
      cycleVertices: RDD[(Long, LrState)], // still-active vertices (in cycles)
      stats: PregelStats,
  ) {
    /** Whether some vertex lies on a cycle: the run halts by itself only
      * once every vertex is done, so it ended with vertices still active
      * exactly when the cycle test stopped it.
      */
    def hasCycles: Boolean = stats.steps.lastOption.exists(_.activeVertices > 0)
  }

  /** The PPA bound 2(⌈log₂ n⌉ + 1) + c (Yan et al., PVLDB 2014) with c = 1:
    * an entry at distance d from its contig end flips in round ⌈log₂(d + 1)⌉,
    * so a path of ℓ ≤ n vertices halts after ⌈log₂ ℓ⌉ rounds of 2
    * supersteps plus the final one, and ⟨1-1⟩ cycles add the one round that
    * flips nothing.
    */
  private def bound(n: Long): Int = 2 * (PregelRuntime.ceilLog2(n) + 1) + 1

  /** Run bidirectional list ranking from initialised predecessor pairs. */
  def run(pairs: RDD[(Long, LrState)]): LrResult = {
    // Cycle detection (see class doc): stop once an update round flips no
    // new entry while vertices remain active — only cycles are left.
    val stop = (t: Seq[StepStat]) =>
      t.size % 2 == 1 && t.size >= 3 && t.last.agg == 0 && t.last.activeVertices > 0
    val (state, stats) = PregelRuntime.run(pairs, compute, "list ranking", bound, stopWhen = stop)
    val cached = state.cache()
    LrResult(
      labels = cached.filter(_._2.done).mapValues(_.label),
      cycleVertices = cached.filter(!_._2.done),
      stats = stats,
    )
  }
}
