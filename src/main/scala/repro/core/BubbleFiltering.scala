package repro.core

import org.apache.spark.rdd.RDD
import repro.dna.{Dna, EditDistance}

/** Operation ④ — bubble filtering (paper §IV-B).
  *
  * A mini-MapReduce keys every contig whose two neighbours nb1, nb2 are
  * both ambiguous by the (unordered) pair (nb1, nb2); all contigs sharing
  * both endpoint vertices form a bubble group. Within a group, contig pairs
  * whose sequences (reverse-complemented if their directions disagree) are
  * within the edit-distance threshold have the lower-coverage member
  * pruned. Contigs without two ambiguous neighbours pass through.
  */
object BubbleFiltering {

  /** Bubble-group pruning: returns the surviving contigs of one group.
    * Members are compared in order of canonical sequence (the smaller of
    * the sequence and its reverse complement), then ID, so a coverage tie
    * keeps the branch with the smaller canonical sequence whatever IDs
    * merging assigned.
    */
  def pruneGroup(group: Seq[Node], editThr: Int): Seq[Node] = {
    def canonical(n: Node): String = { val s = n.seq.toString; val r = Dna.rc(s); if (s <= r) s else r }
    val arr    = group.sortBy(n => (canonical(n), n.id)).toArray
    val pruned = new Array[Boolean](arr.length)
    def ends(n: Node): (Long, Long) =
      (n.edgesOn(Side.Left).head.nbr, n.edgesOn(Side.Right).head.nbr)
    var i = 0
    while (i < arr.length) {
      if (!pruned(i)) {
        var j = i + 1
        while (j < arr.length && !pruned(i)) {
          if (!pruned(j)) {
            val ci = arr(i); val cj = arr(j)
            val si = ci.seq.toString
            val sjRaw = cj.seq.toString
            val sameDirection = ends(ci) == ends(cj)
            val sj =
              if (ends(ci)._1 == ends(ci)._2) // loop on one vertex: direction unknowable
                sjRaw
              else if (sameDirection) sjRaw
              else Dna.rc(sjRaw)
            val d = math.min(
              EditDistance.capped(si, sj, editThr),
              if (ends(ci)._1 == ends(ci)._2) EditDistance.capped(si, Dna.rc(sj), editThr)
              else Int.MaxValue - 1)
            if (d < editThr) {
              if (ci.cov < cj.cov) pruned(i) = true
              else if (cj.cov < ci.cov) pruned(j) = true
              else pruned(j) = true // coverage tie: keep the earlier member
            }
          }
          j += 1
        }
      }
      i += 1
    }
    arr.indices.collect { case idx if !pruned(idx) => arr(idx) }
  }

  /** Filter bubbles across the whole contig set. */
  def filter(contigs: RDD[(Long, Node)], editThr: Int): RDD[(Long, Node)] = {
    val keyed = contigs.map { case (id, c) =>
      val l = c.edgesOn(Side.Left).headOption.map(_.nbr)
      val r = c.edgesOn(Side.Right).headOption.map(_.nbr)
      (l, r) match {
        case (Some(a), Some(b)) => (Some((math.min(a, b), math.max(a, b))), c)
        case _                  => (None, c)
      }
    }
    val passThrough = keyed.filter(_._1.isEmpty).map { case (_, c) => (c.id, c) }
    val bubbles = keyed
      .flatMap { case (k, c) => k.map(kk => (kk, c)) }
      .groupByKey()
      .flatMap { case (_, group) => pruneGroup(group.toSeq, editThr) }
      .map(c => (c.id, c))
    passThrough.union(bubbles)
  }
}
