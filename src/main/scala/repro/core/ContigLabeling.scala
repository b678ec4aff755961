package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import repro.pregel.PregelStats

/** Operation ② — contig labeling (paper §IV-B).
  *
  * Marks every vertex on a maximal unambiguous path (types ⟨1⟩/⟨1-1⟩ only)
  * with a label unique to that path. Contig ends are recognised in two
  * supersteps via the ⟨m-n⟩ broadcast (one `reduceByKey`); the
  * per-path label is then computed either with **bidirectional list
  * ranking** (LR; S-V fallback for ⟨1-1⟩ cycles) or with the **simplified
  * S-V** algorithm over the unambiguous subgraph. LR labels a non-cycle
  * contig with its smaller contig-end ID; S-V with the smallest vertex ID
  * in the path — both unique per contig, as the paper notes.
  */
object ContigLabeling {

  sealed trait Method
  case object LR extends Method
  case object SV extends Method

  final case class Result(labels: RDD[(Long, Long)], stats: PregelStats)

  /** Contig-end recognition (supersteps 1-2): every ⟨m-n⟩ vertex sends its
    * ID along each of its edges. Returns, for each vertex that received
    * any, the set of its ambiguous neighbours' IDs, and the number of
    * messages sent (the ⟨m-n⟩ vertices' edge total).
    */
  def ambiguousNeighbors(nodes: RDD[(Long, Node)]): (RDD[(Long, Set[Long])], Long) = {
    val received = nodes
      .flatMap { case (id, n) =>
        if (n.typ == VType.MN) n.edges.map(e => (e.nbr, Set(id))) else Nil
      }
      .reduceByKey(new HashPartitioner(nodes.getNumPartitions), _ ++ _)
    val msgCount = nodes
      .filter(_._2.typ == VType.MN)
      .map(_._2.edges.size.toLong)
      .fold(0L)(_ + _)
    (received, msgCount)
  }

  /** The unambiguous vertices, each with its ambiguous neighbours' IDs
    * (empty if none), and the end-recognition message count.
    */
  private def unambiguousWithEnds(nodes: RDD[(Long, Node)])
      : (RDD[(Long, (Node, Set[Long]))], Long) = {
    val (ambNbrs, endMsgs) = ambiguousNeighbors(nodes)
    val joined = nodes
      .filter(_._2.typ != VType.MN)
      .leftOuterJoin(ambNbrs)
      .mapValues { case (n, amb) => (n, amb.getOrElse(Set.empty[Long])) }
    (joined, endMsgs)
  }

  /** Initial predecessor pairs (round 0 of Fig. 11) for unambiguous nodes:
    * per side, the neighbour's ID, or the node's flipped ID where the path
    * terminates (no edge, or an ambiguous neighbour).
    */
  def initialPairs(nodes: RDD[(Long, Node)]): (RDD[(Long, ListRanking.LrState)], Long) = {
    val (unamb, endMsgs) = unambiguousWithEnds(nodes)
    val pairs = unamb.map { case (id, (n, amb)) =>
      def slot(side: Int): Long = n.edgesOn(side) match {
        case Vector(e) if !amb.contains(e.nbr) => e.nbr
        case _                                 => Ids.flip(id)
      }
      (id, ListRanking.LrState(slot(Side.Left), slot(Side.Right),
                               slot(Side.Left), slot(Side.Right)))
    }
    (pairs, endMsgs)
  }

  /** A labeling's counters: the runtime's plus the two end-recognition
    * supersteps and their messages, timed from `t0`. The per-superstep
    * trace and the path stay the runtime's.
    */
  private def withEnds(stats: PregelStats, endMsgs: Long, t0: Long): PregelStats =
    stats.copy(supersteps = stats.supersteps + 2, messages = stats.messages + endMsgs,
               millis = System.currentTimeMillis() - t0)

  /** Label with bidirectional list ranking (+ S-V fallback for cycles). */
  def labelLR(nodes: RDD[(Long, Node)]): Result = {
    val t0 = System.currentTimeMillis()
    val (pairs, endMsgs) = initialPairs(nodes)
    val lr = ListRanking.run(pairs.cache())
    val cycles = lr.cycleVertices.cache()
    val nCycles = cycles.count()
    val (labels, stats) =
      if (nCycles == 0) (lr.labels, lr.stats)
      else {
        // Cycle vertices' neighbours are both unambiguous and in the cycle;
        // run S-V over their original neighbour pairs.
        val adj = cycles.map { case (id, st) => (id, Array(st.init0, st.init1)) }
        val (svLabels, svStats) = SvCC.run(adj)
        (lr.labels.union(svLabels), lr.stats + svStats)
      }
    Result(labels, withEnds(stats, endMsgs, t0))
  }

  /** Label with the simplified S-V algorithm over the unambiguous subgraph
    * (contig-end vertices drop their edges to ambiguous vertices first).
    */
  def labelSV(nodes: RDD[(Long, Node)]): Result = {
    val t0 = System.currentTimeMillis()
    val (unamb, endMsgs) = unambiguousWithEnds(nodes)
    val adj = unamb.mapValues { case (n, amb) =>
      n.edges.collect { case e if !amb.contains(e.nbr) => e.nbr }.toArray
    }
    val (labels, svStats) = SvCC.run(adj)
    Result(labels, withEnds(svStats, endMsgs, t0))
  }

  def label(nodes: RDD[(Long, Node)], method: Method): Result = method match {
    case LR => labelLR(nodes)
    case SV => labelSV(nodes)
  }
}
