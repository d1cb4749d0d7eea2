//! Command-line flags shared by the figure and table binaries.
//!
//! A flag is `--name VALUE`.  An absent flag takes the binary's default; a
//! flag whose value is missing or does not parse stops the binary with exit
//! status 2 and a message, instead of silently running with the default.

use std::process;
use std::str::FromStr;
use std::time::Duration;

/// The value after `flag` in `args`: `Ok(None)` when the flag is absent,
/// `Err` with a message when its value is missing or does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(index) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(index + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// `--timeout SECS` as a duration: whole or fractional seconds, `Ok(None)`
/// when the flag is absent.
pub fn parse_timeout(args: &[String]) -> Result<Option<Duration>, String> {
    let Some(seconds) = parse_flag::<f64>(args, "--timeout")? else {
        return Ok(None);
    };
    Duration::try_from_secs_f64(seconds)
        .map(Some)
        .map_err(|_| format!("--timeout: {seconds} is not a number of seconds"))
}

/// The value of `flag`, or `default` when it is absent; exits with status 2
/// when it does not parse.
pub fn flag_or_exit<T: FromStr>(args: &[String], flag: &str, default: T) -> T {
    parse_flag(args, flag)
        .unwrap_or_else(|message| exit_usage(&message))
        .unwrap_or(default)
}

/// `--timeout`, or `default_secs` when it is absent; exits with status 2
/// when it does not parse.
pub fn timeout_or_exit(args: &[String], default_secs: u64) -> Duration {
    parse_timeout(args)
        .unwrap_or_else(|message| exit_usage(&message))
        .unwrap_or(Duration::from_secs(default_secs))
}

fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn timeouts_take_fractional_and_whole_seconds() {
        assert_eq!(
            parse_timeout(&args(&["bin", "--timeout", "0.5"])),
            Ok(Some(Duration::from_millis(500)))
        );
        assert_eq!(
            parse_timeout(&args(&["bin", "--timeout", "3"])),
            Ok(Some(Duration::from_secs(3)))
        );
    }

    #[test]
    fn an_unparsable_or_missing_value_is_an_error() {
        assert!(parse_timeout(&args(&["bin", "--timeout", "abc"])).is_err());
        assert!(parse_timeout(&args(&["bin", "--timeout", "-1"])).is_err());
        assert!(parse_timeout(&args(&["bin", "--timeout"])).is_err());
        assert!(parse_flag::<usize>(&args(&["bin", "--circuits", "abc"]), "--circuits").is_err());
    }

    #[test]
    fn an_absent_flag_takes_the_default() {
        assert_eq!(parse_timeout(&args(&["bin", "--full"])), Ok(None));
        assert_eq!(
            parse_flag::<usize>(&args(&["bin", "--circuits", "4"]), "--circuits"),
            Ok(Some(4))
        );
        assert_eq!(flag_or_exit(&args(&["bin"]), "--circuits", 6usize), 6);
        assert_eq!(timeout_or_exit(&args(&["bin"]), 3), Duration::from_secs(3));
    }
}
