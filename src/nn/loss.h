/**
 * @file
 * Loss functions: binary cross-entropy with logits (DLRM click prediction),
 * mean squared error (performance-model regression), and helpers for
 * evaluation metrics (log-loss, AUC).
 */

#ifndef H2O_NN_LOSS_H
#define H2O_NN_LOSS_H

#include <vector>

#include "nn/tensor.h"

namespace h2o::nn {

/*
 * Each loss returns its mean value over the batch and writes dL/dpred
 * (same shape as the prediction, already divided by the element count)
 * into a caller-owned `grad`, resized in place: a grad tensor reused
 * across training steps allocates only on its first step.
 */

/**
 * Binary cross-entropy with logits. logits and labels are [batch, 1]
 * (or [batch, k] for multi-task), labels in {0, 1}.
 */
double bceWithLogits(const Tensor &logits, const Tensor &labels,
                     Tensor &grad);

/** Mean squared error. pred and target must be the same shape. */
double mseLoss(const Tensor &pred, const Tensor &target, Tensor &grad);

/** Huber (smooth-L1) loss with threshold delta. */
double huberLoss(const Tensor &pred, const Tensor &target, double delta,
                 Tensor &grad);

/** Mean log-loss (same value as BCE) for evaluation without gradients. */
double logLoss(const std::vector<double> &probs,
               const std::vector<double> &labels);

/**
 * Area under the ROC curve via the rank statistic. Labels in {0, 1}.
 * Returns 0.5 when either class is absent.
 */
double auc(const std::vector<double> &scores,
           const std::vector<double> &labels);

/** Numerically-stable logistic function. */
double sigmoid(double x);

} // namespace h2o::nn

#endif // H2O_NN_LOSS_H
