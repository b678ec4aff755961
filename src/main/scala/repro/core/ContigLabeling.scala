package repro.core

import org.apache.spark.rdd.RDD
import repro.pregel.{Msg, PregelRuntime, PregelStats, VertexContext}

/** Operation ② — contig labeling (paper §IV-B).
  *
  * Marks every vertex on a maximal unambiguous path (types ⟨1⟩/⟨1-1⟩ only)
  * with a label unique to that path. Contig ends are recognised in two
  * supersteps on the BSP runtime (the ⟨m-n⟩ broadcast, [[ends]]); the
  * per-path label is then computed either with **bidirectional list
  * ranking** (LR; S-V fallback for ⟨1-1⟩ cycles) or with the **simplified
  * S-V** algorithm over the unambiguous subgraph. LR labels a non-cycle
  * contig with its smaller contig-end ID; S-V with the smallest vertex ID
  * in the path — both unique per contig, as the paper notes. A labeling's
  * stats are the end run's followed by the labeling runs'.
  */
object ContigLabeling {

  sealed trait Method
  case object LR extends Method
  case object SV extends Method

  final case class Result(labels: RDD[(Long, Long)], stats: PregelStats)

  /** A vertex of contig-end recognition: an ⟨m-n⟩ vertex holds its
    * neighbour at each edge, an unambiguous vertex its (Left, Right) pair.
    */
  private final case class EndState(ambiguous: Boolean, nbrs: Array[Long])

  /** Superstep 0: every ⟨m-n⟩ vertex sends its ID along each of its edges,
    * and every unambiguous vertex stays active. Superstep 1: an unambiguous
    * vertex replaces each pair entry that names a sender with its own
    * flipped ID.
    */
  private def endCompute(ctx: VertexContext, id: Long, st: EndState, msgs: Seq[Msg]): EndState =
    if (st.ambiguous) {
      if (ctx.superstep == 0) st.nbrs.foreach(ctx.send(_, 0, id, 0L))
      st
    } else if (ctx.superstep == 0) {
      ctx.remainActive()
      st
    } else {
      val senders = msgs.map(_.a)
      st.copy(nbrs = st.nbrs.map(p => if (senders.contains(p)) Ids.flip(id) else p))
    }

  /** Contig-end recognition (the labeling's first two supersteps): the
    * unambiguous vertices, each with its (Left, Right) pair — per side the
    * neighbour, or the vertex's own flipped ID where the path ends (no
    * edge, or an ⟨m-n⟩ neighbour) — on the run's partitioner, and the run's
    * stats.
    */
  def ends(nodes: RDD[(Long, Node)]): (RDD[(Long, (Long, Long))], PregelStats) = {
    val init = nodes.mapPartitions(_.map { case (id, n) =>
      if (n.typ == VType.MN) (id, EndState(ambiguous = true, n.edges.map(_.nbr).toArray))
      else {
        def slot(side: Int): Long = n.edgesOn(side).headOption.fold(Ids.flip(id))(_.nbr)
        (id, EndState(ambiguous = false, Array(slot(Side.Left), slot(Side.Right))))
      }
    }, preservesPartitioning = true)
    val (out, stats) = PregelRuntime.run(init, endCompute, "contig-end recognition", _ => 2)
    (out.filter(!_._2.ambiguous).mapValues(st => (st.nbrs(0), st.nbrs(1))), stats)
  }

  /** Label with bidirectional list ranking (+ S-V fallback for cycles). */
  def labelLR(nodes: RDD[(Long, Node)]): Result = {
    val (pairs, endStats) = ends(nodes)
    val lr = ListRanking.run(pairs.mapValues { case (l, r) => ListRanking.LrState(l, r, l, r) })
    if (!lr.hasCycles) Result(lr.labels, endStats + lr.stats)
    else {
      // Cycle vertices' neighbours are both unambiguous and in the cycle;
      // run S-V over their original neighbour pairs.
      val (svLabels, svStats) = SvCC.run(lr.cycleVertices.mapValues(st => Array(st.init0, st.init1)))
      Result(lr.labels.union(svLabels), endStats + lr.stats + svStats)
    }
  }

  /** Label with the simplified S-V algorithm over the unambiguous subgraph:
    * a vertex's neighbours are its pair's unflipped entries.
    */
  def labelSV(nodes: RDD[(Long, Node)]): Result = {
    val (pairs, endStats) = ends(nodes)
    val (labels, svStats) =
      SvCC.run(pairs.mapValues { case (l, r) => Array(l, r).filterNot(Ids.isFlipped) })
    Result(labels, endStats + svStats)
  }

  def label(nodes: RDD[(Long, Node)], method: Method): Result = method match {
    case LR => labelLR(nodes)
    case SV => labelSV(nodes)
  }
}
