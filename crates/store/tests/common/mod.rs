//! Shared by the store's integration tests: publishing whole epoch
//! contents through the log's one write primitive.

use std::io;

use v6store::replica::{apply, delta_between};
use v6store::{AppendReceipt, EpochLog, EpochState, EpochView};

/// Appends `view` to `log` as its delta from `mirror`, then replays that
/// delta into `mirror`. A failed append leaves `mirror` at the last
/// durable epoch.
pub fn append_view(
    log: &mut EpochLog,
    mirror: &mut EpochState,
    view: EpochView<'_>,
) -> io::Result<AppendReceipt> {
    let record = delta_between(mirror, &view);
    let receipt = log.append_delta(&record, || (view.entries.to_vec(), view.aliases.to_vec()))?;
    apply(mirror, &record);
    Ok(receipt)
}
