package repro.core

import org.apache.spark.rdd.RDD
import repro.pregel.{Msg, PregelRuntime, PregelStats, StepStat, VertexContext}

/** The simplified Shiloach-Vishkin connected-components PPA (paper §II).
  *
  * Each vertex v maintains a parent pointer D[v] (initially v). A round is:
  * (1) tree hooking — for each edge (u,v), if w = D[u] is a tree root, hook
  * w under the smallest D[v] among u's neighbours; (2) shortcutting —
  * D[v] := D[D[v]]. Star hooking of the original PRAM algorithm is omitted
  * (the paper's simplification). Rounds repeat until no D changes, checked
  * with the aggregator; at termination D[v] is the smallest vertex ID in
  * v's component. O(log n) rounds, 3 supersteps per round:
  *
  *   phase 0 (superstep % 3 == 0): apply shortcut responses, broadcast D to
  *     neighbours;
  *   phase 1: compute min neighbour D, send it as a hooking candidate to
  *     the parent, along with a shortcut request;
  *   phase 2: roots hook to the smallest candidate; every parent responds
  *     its (post-hooking) D to each requester.
  */
object SvCC {

  /** Vertex state: parent pointer + static neighbour list. */
  final case class SvState(d: Long, nbrs: Array[Long]) extends Serializable

  /** Messages: kind 0 = neighbour D broadcast (a = D), kind 1 = hooking
    * candidate + shortcut request (a = candidate, b = requester), kind 2 =
    * parent D response (a = D). Each phase receives one kind, so the
    * smallest value is the head of the sorted inbox.
    */
  private def compute(ctx: VertexContext, id: Long, st: SvState, msgs: Seq[Msg]): SvState = {
    ctx.superstep % 3 match {
      case 0 =>
        var d = st.d
        if (msgs.nonEmpty && msgs.head.a < d) { // shortcut: D[v] := D[D[v]] (monotone)
          d = msgs.head.a
          ctx.aggValue += 1
        }
        if (st.nbrs.nonEmpty) {
          st.nbrs.foreach(n => ctx.send(n, 0, d, id))
          ctx.remainActive()
        }
        st.copy(d = d)
      case 1 =>
        if (msgs.nonEmpty) {
          ctx.send(st.d, 1, msgs.head.a, id)
          ctx.remainActive()
        }
        st
      case _ =>
        var d = st.d
        if (d == id && msgs.nonEmpty && msgs.head.a < d) { // tree root: hooking
          d = msgs.head.a
          ctx.aggValue += 1
        }
        msgs.foreach(m => ctx.send(m.b, 2, d, id))
        if (msgs.nonEmpty) ctx.remainActive()
        st.copy(d = d)
    }
  }

  /** 9⌈log₂ n⌉ + 12, the bound `Table2Bench` asserts. It is generous
    * because the simplified S-V, without star hooking, has no proven bound:
    * 3 supersteps a round allow 3⌈log₂ n⌉ + 4 rounds.
    */
  private def bound(n: Long): Int = 9 * PregelRuntime.ceilLog2(n) + 12

  /** Run S-V over an undirected adjacency-list graph; returns (id -> label)
    * where label is the smallest vertex ID in the component.
    */
  def run(adj: RDD[(Long, Array[Long])]): (RDD[(Long, Long)], PregelStats) = {
    val vertices = adj.mapPartitions(_.map { case (id, ns) => (id, SvState(id, ns)) },
                                     preservesPartitioning = true)
    // Round convergence: a round's total change count is the hooking
    // changes (phase 2, the trace's second-to-last step once a phase 0 has
    // ended it) plus the shortcut changes (that phase 0, its last step).
    val stop = (t: Seq[StepStat]) =>
      t.size % 3 == 1 && t.size >= 4 && t(t.size - 2).agg + t.last.agg == 0
    val (state, stats) = PregelRuntime.run(vertices, compute, "S-V", bound, stopWhen = stop)
    (state.mapValues(_.d), stats)
  }
}
