//! `--key value` argument parsing for the harness subcommands.

use std::collections::BTreeMap;
use std::str::FromStr;

pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut iter = raw.iter();
        while let Some(key) = iter.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{key} expects a value"))?;
            values.insert(key.to_owned(), value.clone());
        }
        Ok(Self { values })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.req(key)?;
        text.parse()
            .map_err(|_| format!("--{key}: cannot parse {text:?}"))
    }
}
