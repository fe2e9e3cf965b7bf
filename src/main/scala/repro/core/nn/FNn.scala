package repro.core.nn

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoders}
import repro.core.{DenseR, FkTargetRow, Touched}
import repro.linalg.{Mat, Vec}

/** Partition-local state of the factorized S-side backprop pass: the
  * S-block gradient sums plus the **per-FK grouped δ-sums**, held in dense
  * slots indexed by R's dense index `r` (`sd(r·nh + j)`), from which
  * ∂E/∂W1_R is finished with one outer product per R tuple.
  */
private[nn] final class FNnAccum(nh: Int, dS: Int, nR: Int) {
  var n: Long = 0L
  var sqErr: Double = 0.0
  val dW1S: Mat = Mat.zeros(nh, dS)
  val db1: Array[Double] = new Array[Double](nh)
  val dW2: Array[Double] = new Array[Double](nh)
  var db2: Double = 0.0
  private val sd = new Array[Double](nR * nh)
  private val touched = new Touched(nR)

  /** Add one S row's δ to the grouped sum of R tuple `r`. */
  def addDelta(r: Int, delta: Array[Double]): Unit = {
    touched.add(r)
    val off = r * nh
    var j = 0
    while (j < nh) { sd(off + j) += delta(j); j += 1 }
  }

  /** Finish this partition's `∂E/∂W1_R = Σ_r (Σ_{fk=r} δ) x_rᵀ` over the R
    * tuples it touched, from R's flat features `xr`, and return the
    * denormalized accumulator of these rows at width d = dS + dR.
    */
  private[nn] def finish(xr: Array[Double], dR: Int): NnAccum = {
    val d = dS + dR
    val out = new NnAccum(nh, d)
    out.n = n; out.sqErr = sqErr; out.db2 = db2
    System.arraycopy(db1, 0, out.db1, 0, nh)
    System.arraycopy(dW2, 0, out.dW2, 0, nh)
    out.dW1.setBlock(0, 0, dW1S)
    val m = out.dW1.a
    var t = 0
    while (t < touched.size) {
      val r = touched(t)
      val xo = r * dR
      var j = 0
      while (j < nh) {
        val s = sd(r * nh + j)
        val row = j * d + dS
        var q = 0
        while (q < dR) { m(row + q) += s * xr(xo + q); q += 1 }
        j += 1
      }
      t += 1
    }
    out
  }
}

/** Algorithm F-NN for binary joins (paper §VI-A).
  *
  * Forward (§VI-A1): the first-layer pre-activation decomposes as
  * `a = W1_S x_S + (W1_R x_R + b1)`; the parenthesized `nh`-vector is
  * computed **once per R tuple per epoch** and reused for every matching S
  * tuple — per-S-row forward cost drops from nh·d to nh·dS.
  *
  * Backward (§VI-A3): `∂E/∂W1 = ∂E/∂a · xᵀ` splits into [PG_S | PG_R];
  * PG_R is finished from per-FK grouped δ-sums (`Σ_{fk=r} δ`) with one
  * outer product per R tuple — the same exact identity the paper uses to
  * avoid reading the redundant x_R fields of T, carried into the compute.
  * Each partition keeps its δ-sums in dense slots indexed by R's dense
  * index ([[DenseR]], built and broadcast once per fit), finishes PG_R for
  * the R tuples it touched, and returns only O(nh·d) sums to the driver.
  *
  * An S row whose `fk` matches no R tuple is skipped: the same inner-join
  * semantics M-NN and S-NN get from their join.
  *
  * Per the paper's recommendation (§VI-A2), no factorization is attempted
  * beyond the first layer: sigmoid/tanh are not additive and even for
  * additive activations the op count increases (see [[Additivity]]).
  */
object FNn {

  /** One factorized epoch.
    *
    * @param s      entity table S(sid, fk, xs, y)
    * @param rRows  collected attribute table R — (rid, xr), nR ≪ nS; a repeated
    *               rid raises an `IllegalArgumentException` naming it
    */
  def epoch(s: DataFrame, rRows: Array[(Long, Array[Double])], model: NnModel,
            lr: Double, dS: Int): (NnModel, Double) =
    DenseR.withBroadcast(s.sparkSession, rRows, model.d - dS)(step(s, _, model, lr, dS))

  private def step(s: DataFrame, bcR: Broadcast[DenseR], model: NnModel, lr: Double,
                   dS: Int): (NnModel, Double) = {
    val spark = s.sparkSession
    import spark.implicits._
    val nh = model.nh
    val w1S = model.w1.block(0, nh, 0, dS)
    val b2 = model.b2; val w2 = model.w2
    val act = model.activation

    // (1) per-R-tuple reusable partial pre-activation, once per epoch.
    val bcPre = spark.sparkContext.broadcast(rBlocks(bcR.value, model, dS))

    // (2) the factorized S-side pass — R features never flow through a join;
    // each partition finishes its own PG_R and returns O(nh·d) sums.
    implicit val accEnc = Encoders.kryo[NnAccum]
    val acc =
      try {
        s.select("fk", "xs", "y").as[FkTargetRow]
          .mapPartitions { it =>
            val rd = bcR.value
            val pre = bcPre.value
            val a = new FNnAccum(nh, dS, rd.n)
            it.foreach { row =>
              val r = rd.index.indexOf(row.fk)
              if (r >= 0) {
                val xs = row.xs
                val preAct = w1S.mv(xs) // nh·dS instead of nh·d
                val po = r * nh
                var j = 0
                while (j < nh) { preAct(j) += pre(po + j); j += 1 }
                var o = b2
                j = 0
                while (j < nh) { o += w2(j) * act.f(preAct(j)); j += 1 }
                val e = o - row.y
                a.n += 1; a.sqErr += e * e; a.db2 += e
                val delta = new Array[Double](nh)
                j = 0
                while (j < nh) {
                  a.dW2(j) += e * act.f(preAct(j))
                  delta(j) = e * w2(j) * act.fPrime(preAct(j))
                  a.db1(j) += delta(j)
                  j += 1
                }
                a.dW1S.addOuter(1.0, delta, xs)          // PG_S
                a.addDelta(r, delta)                     // grouped δ for PG_R
              }
            }
            Iterator.single(a.finish(rd.xr, rd.dR))
          }
          .reduce(_.merge(_))
      } finally bcPre.destroy()

    // (3) scale the merged sums into the loss and the gradients.
    val (loss, grads) = acc.toGrads
    (model.step(grads, lr), loss)
  }

  /** `W1_R x_r + b1` for every R tuple r, flat (tuple r at r·nh). */
  private def rBlocks(rd: DenseR, model: NnModel, dS: Int): Array[Double] = {
    val nh = model.nh
    val dR = rd.dR
    val w1R = model.w1.block(0, nh, dS, model.d)
    val pre = new Array[Double](rd.n * nh)
    var r = 0
    while (r < rd.n) {
      val p = w1R.mv(Vec.slice(rd.xr, r * dR, (r + 1) * dR))
      Vec.addInPlace(p, model.b1)
      System.arraycopy(p, 0, pre, r * nh, nh)
      r += 1
    }
    pre
  }

  /** Collect R once (nR ≪ nS), broadcast its dense form once, and run
    * `epochs` factorized epochs.
    */
  def train(s: DataFrame, r: DataFrame, init: NnModel, epochs: Int, lr: Double): NnFit = {
    val spark = s.sparkSession
    import spark.implicits._
    val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
    val dR = rRows.head._2.length
    val dS = init.d - dR
    DenseR.withBroadcast(spark, rRows, dR) { bcR =>
      var model = init
      val losses = Seq.newBuilder[Double]
      var i = 0
      while (i < epochs) {
        val (next, loss) = step(s, bcR, model, lr, dS)
        model = next
        losses += loss
        i += 1
      }
      NnFit(model, losses.result())
    }
  }
}
